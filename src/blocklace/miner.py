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

    def __post_init__(self):
        if self.n < 3 * self.f + 1:
            raise ValueError(f"n={self.n} violates n >= 3f+1 for f={self.f}")


@dataclass(frozen=True)
class Package:
    """Blocks sorted parents-first so a receiver can cascade in one pass."""

    blocks: tuple[Block, ...]

    def wire(self) -> bytes:
        return encode_package(self.blocks)

    def ids(self) -> list[bytes]:
        return [block_id(b) for b in self.blocks]


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
        # Blocks q provably knows (closures of blocks q created) or was sent.
        self._evidence: list[int] = [0] * config.n
        self._sent_own: list[list[bytes]] = [[] for _ in range(config.n)]
        self._heard_since_send: list[bool] = [False] * config.n
        self.last_send: int = 0  # timer reset at startup
        self.outbox: list[dict] = []  # protocol events drained by the simulator
        self._coin_next = config.params.leader_stride
        self._violations_seen = 0

    # -- receiving -------------------------------------------------------

    def on_receive(self, pkg: Package) -> list[bytes]:
        """Buffer and accept-cascade a package; returns newly accepted ids.

        Per accepted block: extend the evidence of what its creator knows,
        invoke the coin when a new leader round becomes electable, and re-run
        delivery.
        """
        accepted: list[bytes] = []
        for block in pkg.blocks:
            res = self.store.insert(block)
            if res.status != "rejected" and block.creator != self.id:
                self._heard_since_send[block.creator] = True
            for bid in res.newly_accepted:
                self._note_accept(bid)
                accepted.append(bid)
        self._flush_violations()
        return accepted

    def _note_accept(self, bid: bytes) -> None:
        creator = self.store.creator_of(bid)
        if creator != self.id:
            self._evidence[creator] |= self.store.closure_mask(bid)
        self.outbox.append({"e": "accept", "id": bid})
        self._maybe_request_coins()
        self._run_delivery(self.store.depth_of(bid))

    def _flush_violations(self) -> None:
        for bid, reason in self.store.violations[self._violations_seen:]:
            self.outbox.append({"e": "reject", "id": bid, "reason": reason})
        self._violations_seen = len(self.store.violations)

    def note_own_block(self, bid: bytes) -> None:
        """Bookkeeping for a block this miner created and accepted itself."""
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
        while self._coin_next + beta <= self.store.max_depth():
            r = self._coin_next
            if len(self.store.creators_at(r + beta)) < self.store.quorum:
                break
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

    def can_proceed(self, now: int, max_depth: int | None = None) -> int | None:
        """Asynchrony: any fresh cordial round. Eventual synchrony: the same,
        gated by the timer unless this miner leads the depth about to be
        populated."""
        r = self.store.cordial_round(self.id)
        if r is None:
            return None
        if max_depth is not None and r + 1 > max_depth:
            return None
        if self.config.params.model == MODEL_ES:
            if (now - self.last_send) >= self.config.delta:
                return r
            if self.schedule.leader_at(r + 1) == self.id:
                return r
            return None
        return r

    def step(self, now: int, payload: bytes, max_depth: int | None = None,
             share: bytes = b"") -> tuple[Block | None, list[tuple[int, Package]]]:
        """Create a cordial block if possible and build per-peer packages:
        the closure backlog for responsive peers, the bare block otherwise,
        nothing for peers observed faulty."""
        r = self.can_proceed(now, max_depth)
        if r is None:
            return None, []
        blk = self.store.create_block(self.id, payload, self.store.blocks_prefix(r), share)
        bid = block_id(blk)
        self.note_own_block(bid)
        sends = []
        for q in range(self.config.n):
            if q == self.id or self.store.is_faulty(q):
                continue
            sends.append((q, self.package_for(q, bid)))
        self.last_send = now
        self._flush_violations()
        return blk, sends

    def package_for(self, q: MinerId, bid: bytes) -> Package:
        """Build and record the package carrying bid to q: for a responsive
        peer, the new block plus every backlog block q has shown no evidence
        of knowing; for a nonresponsive peer, the bare block.

        Blocks of the round just built on travel bare even to responsive
        peers: they are still in flight from their own creators and are
        relayed one round later if evidence is still missing.
        """
        if not self.responsive(q):
            return self._package(q, 1 << self.store.index_of(bid), bid)
        # Depth falls along every pointer, so the only closure blocks one
        # round below bid are its direct pointees.
        mask = self.store.closure_mask(bid)
        below = self.store.depth_of(bid) - 1
        for p in self.store.get(bid).pointers:
            if self.store.depth_of(p) == below:
                mask &= ~(1 << self.store.index_of(p))
        return self._package(q, mask, bid)

    def closure_package(self, q: MinerId, bid: bytes) -> Package:
        """The whole closure of own block bid that q has shown no evidence
        of knowing, whether or not q is responsive."""
        return self._package(q, self.store.closure_mask(bid), bid)

    def flush_package(self, q: MinerId) -> Package | None:
        """Anti-entropy fallback: everything accepted that q has shown no
        evidence of knowing, parents-first; None when nothing is missing.
        Used only when the network is otherwise quiescent."""
        pkg = self._package(q, (1 << len(self.store)) - 1)
        return pkg if pkg.blocks else None

    def _package(self, q: MinerId, mask: int, own: bytes | None = None) -> Package:
        """The blocks of mask that q has shown no evidence of knowing,
        parents-first, counted as known to q from now on. own, when given, is
        the new own block this send carries: q's responsiveness is judged
        against it from now on."""
        mask &= ~self._evidence[q]
        self._evidence[q] |= mask
        if own is not None:
            self._sent_own[q].append(own)
            self._heard_since_send[q] = False
        ids = sorted(self.store.ids_in_mask(mask),
                     key=lambda b: (self.store.depth_of(b), b))
        return Package(tuple(self.store.get(i) for i in ids))

    def responsive(self, q: MinerId) -> bool:
        """q has responded to the last block sent to it: either something
        arrived from q since, or an accepted q-block acknowledges the last
        own block sent (own blocks form a chain, so the last one decides).
        Vacuously true before any send."""
        sent = self._sent_own[q]
        if not sent:
            return True
        if self._heard_since_send[q]:
            return True
        ack = self.store.creator_ack_mask(q)
        return bool((ack >> self.store.index_of(sent[-1])) & 1)

    def drain_outbox(self) -> list[dict]:
        out = self.outbox
        self.outbox = []
        return out
