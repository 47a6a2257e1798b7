"""Per-miner protocol state machine: buffering and acceptance of received
packages, cordial block creation, evidence-based backlog dissemination, and
responsiveness tracking."""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import Block, Keyring, MinerId, block_id, encode_package
from .leaders import CoinOracle
from .ordering import (
    MODEL_ES,
    DeliveryLog,
    WaveParams,
    extend_delivery,
)
from .store import BlockStore


@dataclass(frozen=True)
class ProtocolConfig:
    n: int
    f: int
    params: WaveParams
    delta: int = 0


@dataclass(frozen=True)
class Package:
    """Blocks sorted parents-first so a receiver can cascade in one pass."""

    blocks: tuple[Block, ...]

    def wire(self) -> bytes:
        return encode_package(self.blocks)


class MinerState:
    """One protocol participant: a store, a delivery log, per-peer evidence
    of what each peer knows, and the timer used by the eventual-synchrony
    instance of the proceed rule."""

    def __init__(self, mid: MinerId, config: ProtocolConfig, schedule,
                 keyring: Keyring | None = None, oracle: CoinOracle | None = None):
        self.id = mid
        self.config = config
        self.schedule = schedule
        self.oracle = oracle
        self.store = BlockStore(config.n, config.f, keyring)
        self.log = DeliveryLog()
        # Blocks sent to q; with the closures of q's own blocks
        # (store.creator_ack_mask), what q has shown evidence of knowing.
        self._sent: list[int] = [0] * config.n
        self._last_sent: list[bytes | None] = [None] * config.n  # own block
        self._heard_since_send: list[bool] = [False] * config.n
        self.last_send: int = 0  # timer reset at startup
        # Packages built since the last step, by mask: a mask's blocks never
        # change, since the store only grows and an index's block is fixed.
        self._built: dict[int, Package] = {}
        self.outbox: list[dict] = []  # protocol events drained by the simulator
        self._coin_next = config.params.leader_stride

    # -- receiving -------------------------------------------------------

    def on_receive(self, pkg: Package) -> list[bytes]:
        """Buffer and accept-cascade a package; returns newly accepted ids.

        Per accepted block: invoke the coin when a new leader round becomes
        electable, and re-run delivery.
        """
        accepted: list[bytes] = []
        for block in pkg.blocks:
            res = self.store.insert(block)
            if res.status != "rejected" and block.creator != self.id:
                self._heard_since_send[block.creator] = True
            for bid in res.newly_accepted:
                self.note_accept(bid)
                accepted.append(bid)
        for bid, reason in self.store.violations:
            self.outbox.append({"e": "reject", "id": bid, "reason": reason})
        self.store.violations.clear()
        return accepted

    def note_accept(self, bid: bytes) -> None:
        """Bookkeeping for a newly accepted block, received or own."""
        self.outbox.append({"e": "accept", "id": bid})
        self._maybe_request_coins()
        self._run_delivery(self.store.depth_of(bid))

    def poke(self) -> None:
        """Re-check delivery without a new block (after a coin reveal)."""
        self._maybe_request_coins()
        self._run_delivery(None)

    def _maybe_request_coins(self) -> None:
        if self.oracle is None:
            return
        stride = self.config.params.leader_stride
        beta = self.config.params.beta
        while self._coin_next + beta <= self.store.quorum_round:
            r = self._coin_next
            self.oracle.request(self.id, r)
            self.outbox.append({"e": "coin-call", "r": r})
            self._coin_next = r + stride

    def _run_delivery(self, trigger_depth: int | None) -> list[bytes]:
        before = self.log.current_leader
        new = extend_delivery(self.store, self.log, self.schedule, self.config.params)
        if self.log.current_leader != before:
            anchor_round = self.store.depth_of(self.log.current_leader)
            if trigger_depth is None:
                trigger_depth = anchor_round + self.config.params.beta
            self.outbox.append({
                "e": "decide",
                "round": anchor_round,
                "trigger": trigger_depth,
                "delivered": len(new),
            })
        return new

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
        self.note_accept(bid)
        store = self.store
        backlog = store.closure_mask(bid)
        bare = 1 << store.index_of(bid)
        below = store.depth_of(bid) - 1
        for p in blk.pointers:
            i = store.index_of(p)
            if store.is_faulty(store._creator[i]):
                bare |= 1 << i
            elif store._depth[i] == below:
                backlog &= ~(1 << i)
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
        wrapper in a change to the benchmark (ROADMAP item 6)."""
        pkg = self._package(q, (1 << len(self.store)) - 1)
        return pkg if pkg.blocks else None

    def _package(self, q: MinerId, mask: int, own: bytes | None = None) -> Package:
        """The blocks of mask that q has shown no evidence of knowing,
        parents-first, counted as known to q from now on. own, when given, is
        the new own block this send carries: q's responsiveness is judged
        against it from now on. A mask built since the last step returns
        the same Package object."""
        mask &= ~(self._sent[q] | self.store.creator_ack_mask(q))
        self._sent[q] |= mask
        if own is not None:
            self._last_sent[q] = own
            self._heard_since_send[q] = False
        pkg = self._built.get(mask)
        if pkg is None:
            pkg = self._built[mask] = Package(tuple(self.store.blocks_in_mask(mask)))
        return pkg

    def responsive(self, q: MinerId) -> bool:
        """q has responded to the last block sent to it: either something
        arrived from q since, or an accepted q-block acknowledges the last
        own block sent (own blocks form a chain, so the last one decides).
        Vacuously true before any send."""
        sent = self._last_sent[q]
        if sent is None or self._heard_since_send[q]:
            return True
        ack = self.store.creator_ack_mask(q)
        return bool((ack >> self.store.index_of(sent)) & 1)

    def drain_outbox(self) -> list[dict]:
        out = self.outbox
        self.outbox = []
        return out
