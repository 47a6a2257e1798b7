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


def topo_key(store: BlockStore):
    """Fixed topological tie-break: depth, then creator index, then id bytes."""
    return lambda bid: (store.depth_of(bid), store.creator_of(bid), bid)


def topo_sorted(store: BlockStore, ids) -> list[bytes]:
    return sorted(ids, key=topo_key(store))


def leader_blocks_at(store: BlockStore, schedule, d: int) -> list[bytes]:
    lead = schedule.leader_at(d)
    if lead is None:
        return []
    return sorted(b for b in store.blocks_at(d) if store.creator_of(b) == lead)


def ratifier_creators(store: BlockStore, cand: bytes, depth: int, alpha: int) -> set[int]:
    """Creators of depth-`depth` blocks that ratify cand."""
    return {store.creator_of(b) for b in store.blocks_at(depth)
            if store.ratifies(cand, b, alpha)}


def super_ratified_leader(store: BlockStore, schedule, params: WaveParams,
                          min_round: int = 1) -> bytes | None:
    """Deepest leader block ratified by a >= 2f+1-creator supermajority of
    blocks beta rounds deeper; under eventual synchrony the leader block of
    that deeper round must itself ratify it. Rounds below min_round are not
    inspected (super-ratification is monotone, so an incremental caller can
    skip everything at or below its current anchor)."""
    top = store.max_depth() - params.beta
    stride = params.leader_stride
    start = (top // stride) * stride
    for r in range(start, max(min_round, 1) - 1, -stride):
        for cand in leader_blocks_at(store, schedule, r):
            if _super_ratified(store, schedule, params, cand, r):
                return cand
    return None


def is_super_ratified(store: BlockStore, schedule, params: WaveParams,
                      cand: bytes) -> bool:
    """Whether one specific leader block meets the decision rule."""
    r = store.depth_of(cand)
    if schedule.leader_at(r) != store.creator_of(cand):
        return False
    return _super_ratified(store, schedule, params, cand, r)


def _super_ratified(store: BlockStore, schedule, params: WaveParams,
                    cand: bytes, r: int) -> bool:
    creators = ratifier_creators(store, cand, r + params.beta, params.alpha)
    if len(creators) < store.quorum:
        return False
    if params.alpha == 1:
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
    """A miner's final output: the delivered order, permanently suppressed
    equivocation blocks, and the current super-ratified anchor."""

    delivered: list[bytes] = field(default_factory=list)
    delivered_set: set[bytes] = field(default_factory=set)
    suppressed: set[bytes] = field(default_factory=set)
    current_leader: bytes | None = None
    records: list[dict] = field(default_factory=list)

    def current_round(self, store: BlockStore) -> int:
        return store.depth_of(self.current_leader) if self.current_leader else 0


def extend_delivery(store: BlockStore, log: DeliveryLog, schedule,
                    params: WaveParams) -> list[bytes]:
    """Incremental delivery: when a new super-ratified leader appears, walk
    back through ratified leaders to the previous anchor and emit each
    fragment in topological order, filtering non-approved blocks.

    Returns the newly delivered ids in delivery order.
    """
    floor = log.current_round(store)
    anchor = super_ratified_leader(store, schedule, params, min_round=floor + 1)
    if anchor is None or anchor == log.current_leader:
        return []
    chain: list[tuple[bytes, bytes | None]] = []
    cur: bytes | None = anchor
    while cur is not None and cur not in log.delivered_set:
        prev = prev_ratified_leader(store, schedule, params, cur)
        chain.append((cur, prev))
        cur = prev
    new: list[bytes] = []
    for b1, b2 in reversed(chain):
        new.extend(_deliver_fragment(store, log, b1, b2))
    log.current_leader = anchor
    return new


def _deliver_fragment(store: BlockStore, log: DeliveryLog, b1: bytes,
                      b2: bytes | None) -> list[bytes]:
    frag_mask = store.closure_mask(b1)
    if b2 is not None:
        frag_mask &= ~store.closure_mask(b2)
    ids = store.ids_in_mask(frag_mask)
    out = []
    leader_round = store.depth_of(b1)
    for bid in topo_sorted(store, ids):
        if bid in log.delivered_set or bid in log.suppressed:
            continue
        if store.approves(bid, b1):
            log.delivered.append(bid)
            log.delivered_set.add(bid)
            log.records.append({
                "position": len(log.delivered) - 1,
                "block": bid.hex(),
                "creator": store.creator_of(bid),
                "depth": store.depth_of(bid),
                "leader_round": leader_round,
            })
            out.append(bid)
        else:
            log.suppressed.add(bid)
    return out


def reference_order(store: BlockStore, schedule,
                    params: WaveParams) -> tuple[list[bytes], set[bytes]]:
    """From-scratch recomputation of the whole output sequence, with no
    caching: recurse from the last super-ratified leader through ratified
    leaders and stitch the fragments back-to-front."""
    anchor = super_ratified_leader(store, schedule, params)
    if anchor is None:
        return [], set()

    def recurse(b1: bytes) -> tuple[list[bytes], set[bytes]]:
        b2 = prev_ratified_leader(store, schedule, params, b1)
        if b2 is None:
            head: list[bytes] = []
            sup: set[bytes] = set()
            frag = store.closure([b1])
        else:
            head, sup = recurse(b2)
            frag = store.closure([b1]) - store.closure([b2])
        good = [x for x in topo_sorted(store, frag) if store.approves(x, b1)]
        sup = sup | {x for x in frag if not store.approves(x, b1)}
        return head + good, sup

    return recurse(anchor)
