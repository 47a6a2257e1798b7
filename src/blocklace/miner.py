"""Per-miner protocol state machine: buffering and acceptance of received
packages, cordial block creation, evidence-based backlog dissemination, and
responsiveness tracking."""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import Block, Keyring, MinerId, block_id, encode_block, package_size
from .leaders import CoinOracle
from .ordering import (
    MODEL_ES,
    DeliveryLog,
    WaveParams,
    extend_delivery,
)
from .store import BlockStore, BlockTable


@dataclass(frozen=True)
class ProtocolConfig:
    n: int
    f: int
    params: WaveParams
    delta: int = 0


@dataclass(frozen=True, init=False)
class Package:
    """Blocks sorted parents-first so a receiver can cascade in one pass,
    with the package's wire size and its blocks' hex ids, worked out once
    for every send of it. ids is one string, the hex ids joined in package
    order, so a one-block package's is its block's own hex id. The send and
    deliver events that hold it hold only strings and ints, so the cyclic
    GC never tracks them, from birth; Transcript.lines() writes the array
    of ids."""

    blocks: tuple[Block, ...]
    size: int
    ids: str

    def __init__(self, blocks: tuple[Block, ...]):
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "size", package_size(blocks))
        object.__setattr__(self, "ids", "".join(b._hex for b in blocks))


class MinerState:
    """One protocol participant: a store, a delivery log, per-peer evidence
    of what each peer knows, and the timer used by the eventual-synchrony
    instance of the proceed rule. It appends its own transcript lines
    (create, accept, reject, coin-call, decide), complete and stamped with
    the tick they happen at, to events."""

    def __init__(self, mid: MinerId, config: ProtocolConfig, schedule, events: list[dict],
                 keyring: Keyring | None = None, oracle: CoinOracle | None = None,
                 table: BlockTable | None = None):
        self.id = mid
        self.events = events
        self.config = config
        self.schedule = schedule
        self.oracle = oracle
        self.store = BlockStore(config.n, config.f, keyring, table)
        self.log = DeliveryLog()
        # The mask of blocks sent to q; with the closures of q's own blocks
        # (BlockStore.unshown), what q has shown evidence of knowing.
        self._sent: list[int] = [0] * config.n
        self._last_sent: list[bytes | None] = [None] * config.n  # own block
        self._heard_since_send: list[bool] = [False] * config.n
        self.last_send: int = 0  # timer reset at startup
        # Packages built since the last step, by mask: a mask's blocks never
        # change, since the store only grows and an index's block is fixed.
        self._built: dict[int, Package] = {}
        self.decisions: list[tuple[int, int]] = []  # (round, trigger) of each decide event
        self._coin_next = config.params.leader_stride

    # -- receiving -------------------------------------------------------

    def on_receive(self, pkg: Package, now: int) -> None:
        """Buffer and accept-cascade a package, writing an accept line per
        newly accepted block and a reject line per rejected one.

        Per accepted block: invoke the coin when a new leader round becomes
        electable, and re-run delivery once it can decide something.
        """
        for block in pkg.blocks:
            for bid in self.store.insert(block).newly_accepted:
                self.note_accept(bid, now)
        for bid, reason in self.store.violations:
            # A rejected block may be missing from the table: name it afresh.
            self.events.append({"e": "reject", "t": now, "m": self.id, "id": bid.hex(),
                                "reason": reason})
        self.store.violations.clear()

    def note_create(self, bid: bytes, now: int) -> None:
        """Write the create line of own block bid, just made and accepted
        here, then its accept line."""
        blk = self.store.get(bid)
        self.events.append({"e": "create", "t": now, "m": self.id, "id": blk._hex,
                            "c": blk.creator, "d": self.store.depth_of(bid),
                            "enc": encode_block(blk).hex(), "sig": blk.signature.hex()})
        self.note_accept(bid, now)

    def note_accept(self, bid: bytes, now: int) -> None:
        """Bookkeeping for a newly accepted block, received or own: a
        peer's block marks its creator heard (see responsive)."""
        blk = self.store.get(bid)
        if blk.creator != self.id:
            self._heard_since_send[blk.creator] = True
        self.events.append({"e": "accept", "t": now, "m": self.id, "id": blk._hex})
        self._advance(bid, now)

    def poke(self, now: int) -> None:
        """Re-check delivery without a new block (after a coin reveal)."""
        self._advance(None, now)

    def _advance(self, bid: bytes | None, now: int) -> None:
        """Request the coins now due, then extend delivery, writing a decide
        event, triggered by bid if given, when the anchor moves. Delivery is
        skipped while quorum_round - beta is below the first leader round
        above the anchor's (the anchor's round is 0 or a leader round): no
        round there has a quorum of possible ratifiers, so nothing could be
        decided."""
        params, top = self.config.params, self.store.quorum_round
        while self.oracle is not None and self._coin_next + params.beta <= top:
            self.oracle.request(self.id, self._coin_next)
            self.events.append({"e": "coin-call", "t": now, "m": self.id, "r": self._coin_next})
            self._coin_next += params.leader_stride
        if top - params.beta < self.log.current_round + params.leader_stride:
            return
        before = self.log.current_leader
        new = extend_delivery(self.store, self.log, self.schedule, params)
        if self.log.current_leader != before:
            anchor_round = self.log.current_round
            trigger = anchor_round + params.beta if bid is None else self.store.depth_of(bid)
            self.decisions.append((anchor_round, trigger))
            self.events.append({"e": "decide", "t": now, "m": self.id, "round": anchor_round,
                                "trigger": trigger, "delivered": len(new)})

    # -- proceeding --------------------------------------------------------

    def can_proceed(self, now: int, max_depth: int) -> int | None:
        """The round to build over, or None to wait: the fresh cordial round,
        if a block over it stays within max_depth. Under eventual synchrony
        the timer also gates it, unless this miner leads the depth about to
        be populated."""
        r = self.store.cordial_round(self.id)
        if r is None or r + 1 > max_depth:
            return None
        if self.config.params.model == MODEL_ES:
            if (now - self.last_send) >= self.config.delta:
                return r
            if self.schedule.leader_at(r + 1) == self.id:
                return r
            return None
        return r

    def step(self, now: int, payload: bytes,
             r: int) -> tuple[Block, list[tuple[int, Package]]]:
        """Create a block over round r, the round can_proceed returned, and
        build per-peer packages: the closure backlog for responsive peers,
        the bare block otherwise, nothing for peers observed faulty.

        The backlog is the new block's closure less its pointees one round
        below (depth falls along every pointer, so those are the only
        closure blocks there) that are in flight from their creators. A
        pointee by a known equivocator is not: its twin went to half of the
        peers only. So it stays in the backlog, and goes with the bare
        block too. Both masks are built once and each peer's evidence is
        applied to them. Peers whose masks come out equal share one Package."""
        blk = self.store.create_block(self.id, payload, r)
        bid = block_id(blk)
        self.note_create(bid, now)
        backlog, bare = self.store.own_masks(bid)
        self._built.clear()
        sends = []
        for q in range(self.config.n):
            if q == self.id or self.store.is_faulty(q):
                continue
            sends.append((q, self.package_for(q, bid, backlog, bare)))
        self.last_send = now
        return blk, sends

    def package_for(self, q: MinerId, bid: bytes, backlog: int, bare: int) -> Package:
        """Build and record the package carrying bid to q: the blocks of the
        backlog mask, for a responsive peer, or of the bare mask, for a
        nonresponsive one, that q has shown no evidence of knowing.

        Blocks of the round just built on are in neither mask unless their
        creator is a known equivocator: the others are in flight from their
        creators and are relayed one round later if evidence is still
        missing.
        """
        return self._package(q, backlog if self.responsive(q) else bare, bid)

    def closure_package(self, q: MinerId, bid: bytes) -> Package:
        """The whole closure of own block bid that q has shown no evidence
        of knowing, whether or not q is responsive."""
        return self._package(q, self.store.closure_mask(bid), bid)

    def flush_package(self, q: MinerId) -> Package | None:
        """Everything accepted that q has shown no evidence of knowing,
        parents-first; None when nothing is missing. No miner or simulator
        path calls it: its only user is the benchmark's per-layer wrapper in
        bench/layers.py, which wraps it by name. It goes together with that
        wrapper in a change to the benchmark (ROADMAP item 1)."""
        pkg = self._package(q, self.store.mask_of(self.store.accepted_ids()))
        return pkg if pkg.blocks else None

    def _package(self, q: MinerId, mask: int, own: bytes | None = None) -> Package:
        """The blocks of mask that q has shown no evidence of knowing,
        parents-first, counted as known to q from now on. own, when given, is
        the new own block this send carries: q's responsiveness is judged
        against it from now on. A mask built since the last step returns
        the same Package object."""
        mask = self.store.unshown(q, mask, self._sent[q])
        self._sent[q] |= mask
        if own is not None:
            self._last_sent[q] = own
            self._heard_since_send[q] = False
        pkg = self._built.get(mask)
        if pkg is None:
            pkg = self._built[mask] = Package(tuple(self.store.blocks_in_mask(mask)))
        return pkg

    def responsive(self, q: MinerId) -> bool:
        """Whether q gets the backlog rather than the bare block. q is
        responsive before any send to it. After one, it is responsive if
        one of its blocks was newly accepted here since the last send, or
        if an accepted block of its own acknowledges the last own block
        sent (own blocks form a chain, so the last one decides).

        Only a newly accepted block counts. A duplicate shows nothing new:
        peers relay q's blocks, so copies of old q-blocks keep arriving
        after q has crashed. A buffered block counts when the cascade
        accepts it, not when it arrives, so it counts once, and never if
        its pointees never come. Each q-block is newly accepted once, so a
        crashed q stops counting as heard when its last blocks are in."""
        sent = self._last_sent[q]
        if sent is None or self._heard_since_send[q]:
            return True
        return self.store.acknowledged_by(q, sent)
