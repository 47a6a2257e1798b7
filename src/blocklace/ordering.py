"""Conversion of a blocklace into a final totally ordered block sequence:
super-ratified-leader detection, incremental fragment delivery, and a
from-scratch reference recomputation used as the correctness oracle."""

from __future__ import annotations

from dataclasses import dataclass, field

from .store import BlockStore

MODEL_ES = "eventual-synchrony"
MODEL_ASYNC = "asynchrony"


@dataclass(frozen=True)
class WaveParams:
    """Round offsets of the decision rule and the spacing of leader rounds."""

    alpha: int
    beta: int
    leader_stride: int
    model: str

    def __post_init__(self):
        expected = {MODEL_ES: (1, 2, 2), MODEL_ASYNC: (2, 5, 5)}
        if self.model not in expected:
            raise ValueError(f"unknown model {self.model!r}")
        if (self.alpha, self.beta, self.leader_stride) != expected[self.model]:
            raise ValueError(f"bad offsets for {self.model}")

    @property
    def wave_length(self) -> int:
        return self.beta + 1


ES_PARAMS = WaveParams(1, 2, 2, MODEL_ES)
ASYNC_PARAMS = WaveParams(2, 5, 5, MODEL_ASYNC)


def params_for(model: str) -> WaveParams:
    if model == MODEL_ES:
        return ES_PARAMS
    if model == MODEL_ASYNC:
        return ASYNC_PARAMS
    raise ValueError(f"unknown model {model!r}")


def topo_sorted(store: BlockStore, ids) -> list[bytes]:
    """ids in the fixed topological order: depth, then creator index, then
    id bytes."""
    return sorted(ids, key=lambda b: (store.depth_of(b), store.creator_of(b), b))


def leader_blocks_at(store: BlockStore, schedule, d: int) -> list[bytes]:
    """Round d's leader blocks, by id."""
    lead = schedule.leader_at(d)
    return [] if lead is None else store.blocks_by_at(lead, d)


def super_ratified_leader(store: BlockStore, schedule,
                          params: WaveParams) -> bytes | None:
    """Deepest leader block ratified by a quorum of creators' blocks beta
    rounds deeper; under eventual synchrony the leader block of that deeper
    round must itself ratify it."""
    top = store.max_depth() - params.beta
    stride = params.leader_stride
    start = (top // stride) * stride
    for r in range(start, 0, -stride):
        for cand in leader_blocks_at(store, schedule, r):
            if _super_ratified(store, schedule, params, cand, r):
                return cand
    return None


def _super_ratified(store: BlockStore, schedule, params: WaveParams,
                    cand: bytes, r: int) -> bool:
    """Whether leader block cand of round r meets the decision rule."""
    creators = {store.creator_of(b) for b in store.blocks_at(r + params.beta)
                if store.ratifies(cand, b, params.alpha)}
    if len(creators) < store.quorum:
        return False
    if params.model == MODEL_ES:
        lbs = leader_blocks_at(store, schedule, r + params.beta)
        if not any(store.ratifies(cand, lb, params.alpha) for lb in lbs):
            return False
    return True


def prev_ratified_leader(store: BlockStore, schedule, params: WaveParams,
                         b1: bytes) -> bytes | None:
    """Deepest leader block, shallower than b1, that b1 ratifies."""
    stride = params.leader_stride
    top = ((store.depth_of(b1) - 1) // stride) * stride
    for r in range(top, 0, -stride):
        hits = [cand for cand in leader_blocks_at(store, schedule, r)
                if store.ratifies(cand, b1, params.alpha)]
        if len(hits) > 1:
            # Both halves of an equivocation cannot have supermajority
            # approval while equivocators stay below f.
            raise AssertionError(
                f"two ratified leader blocks at round {r}: more than f equivocators?")
        if hits:
            return hits[0]
    return None


@dataclass
class DeliveryLog:
    """A miner's final output: the delivered order with each block's leader
    round, permanently suppressed equivocation blocks, their union placed as
    the store's mask of them, and the current super-ratified anchor with
    its round (0 before the first)."""

    delivered: list[bytes] = field(default_factory=list)
    leader_rounds: list[int] = field(default_factory=list)
    suppressed: set[bytes] = field(default_factory=set)
    placed: int = 0
    current_leader: bytes | None = None
    current_round: int = 0


def extend_delivery(store: BlockStore, log: DeliveryLog, schedule,
                    params: WaveParams) -> list[bytes]:
    """Incremental delivery: when a new super-ratified leader appears, walk
    back through ratified leaders to the first one placed and emit each
    newer one's fragment in topological order, filtering non-approved blocks.
    The walk asks prev_ratified_leader at every step: the store keeps each
    ratification verdict, and a leader round whose coin is unrevealed now
    may be known at the next walk.

    Returns the newly delivered ids in delivery order. While quorum_round
    - beta is below the first leader round above the anchor's, no round is
    scanned and nothing changes; MinerState skips the call then.
    """
    anchor = _deepest_super_ratified(store, schedule, params, log.current_round)
    if anchor is None:
        return []
    chain: list[bytes] = []
    cur: bytes | None = anchor
    while cur is not None and not store.covers(log.placed, cur):
        chain.append(cur)
        cur = prev_ratified_leader(store, schedule, params, cur)
    new: list[bytes] = []
    for b1 in reversed(chain):
        out, suppressed = store.fragment(b1, log.placed)
        log.placed |= store.closure_mask(b1)
        log.suppressed.update(suppressed)
        log.delivered += out
        log.leader_rounds += [store.depth_of(b1)] * len(out)
        new += out
    log.current_leader = anchor
    log.current_round = store.depth_of(anchor)
    return new


def _deepest_super_ratified(store: BlockStore, schedule, params: WaveParams,
                            floor: int) -> bytes | None:
    """The deepest super-ratified leader block above round floor, as
    super_ratified_leader would find it (super-ratification is monotone, so
    nothing at or below the anchor need be inspected). The store counts the
    creators of the blocks beta rounds deeper that ratify a candidate, so
    under eventual synchrony a leader block there ratifies the candidate
    exactly when that round's leader is among them."""
    alpha, beta, stride = params.alpha, params.beta, params.leader_stride
    top = store.quorum_round - beta  # deeper rounds lack a quorum of ratifiers
    for r in range((top // stride) * stride, floor, -stride):
        for cand in leader_blocks_at(store, schedule, r):
            ratifiers = store.ratifying_creators(cand, r + beta, alpha)
            if len(ratifiers) < store.quorum:
                continue
            if params.model == MODEL_ES and schedule.leader_at(r + beta) not in ratifiers:
                continue
            return cand
    return None


def reference_order(store: BlockStore, schedule,
                    params: WaveParams) -> tuple[list[bytes], set[bytes]]:
    """From-scratch recomputation of the whole output sequence, with nothing
    carried over from the run: the verifiers call it on a replay with a
    private table, so the only verdicts it reads are ones that replay
    computed. Walk back from the last super-ratified leader through ratified
    leaders; front to back, each one's fragment is what its pointers reach
    that no earlier fragment placed: its closure less its predecessor's,
    which it ratifies."""
    chain: list[bytes] = []
    cur = super_ratified_leader(store, schedule, params)
    while cur is not None:
        chain.append(cur)
        cur = prev_ratified_leader(store, schedule, params, cur)
    order: list[bytes] = []
    suppressed: set[bytes] = set()
    placed: set[bytes] = set()
    for b1 in reversed(chain):
        frag, stack = [], [b1]
        while stack:
            b = stack.pop()
            if b not in placed:
                placed.add(b)
                frag.append(b)
                stack.extend(store.get(b).pointers)
        order += [x for x in topo_sorted(store, frag) if store.approves(x, b1)]
        suppressed |= {x for x in frag if not store.approves(x, b1)}
    return order, suppressed
