"""Brute-force reference implementations used as independent test oracles.

Everything here works on plain dicts extracted from blocks (id -> pointers,
id -> creator) and recomputes reachability from scratch, deliberately
sharing no code with the store's bitmask machinery. The exceptions are
`bf_rebuild_store`, `bf_parents_first`, `bf_ordering_equivalence`,
`bf_model_conformance`, `bf_reference_order` and `bf_cordial_round`, copies
of retired library code
kept to check their replacements, and the store queries at the end, which
only tests need and which read a store through its public API.
"""

from __future__ import annotations

from itertools import combinations, product

from blocklace.blocks import block_id
from blocklace.checks import ReplayError, Verdict, prefix_divergence
from blocklace.ordering import (
    MODEL_ES,
    _super_ratified,
    prev_ratified_leader,
    reference_order,
    super_ratified_leader,
    topo_sorted,
)
from blocklace.store import BlockStore


def graph_of(store) -> tuple[dict, dict]:
    pointers = {}
    creators = {}
    for bid in store.accepted_ids():
        blk = store.get(bid)
        pointers[bid] = tuple(blk.pointers)
        creators[bid] = blk.creator
    return pointers, creators


def bf_reachable(pointers: dict, root) -> set:
    """All blocks reachable from root by pointer paths, root included."""
    seen = {root}
    stack = [root]
    while stack:
        cur = stack.pop()
        for p in pointers.get(cur, ()):
            if p in pointers and p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def bf_acknowledges(pointers: dict, a, b) -> bool:
    return a != b and b in bf_reachable(pointers, a)


def bf_closure(pointers: dict, roots) -> set:
    out = set()
    for r in roots:
        out |= bf_reachable(pointers, r)
    return out


def bf_depth(pointers: dict, b) -> int:
    """Longest pointer path from b, plus one."""
    memo = {}

    def go(x):
        if x not in memo:
            memo[x] = 1 + max((go(p) for p in pointers.get(x, ()) if p in pointers),
                              default=0)
        return memo[x]

    return go(b)


def bf_equivocation(pointers: dict, creators: dict, b1, b2) -> bool:
    if b1 == b2 or creators[b1] != creators[b2]:
        return False
    return not (bf_acknowledges(pointers, b1, b2) or bf_acknowledges(pointers, b2, b1))


def bf_approves(pointers: dict, creators: dict, b1, b) -> bool:
    cl = bf_reachable(pointers, b)
    if b1 not in cl:
        return False
    return not any(bf_equivocation(pointers, creators, b1, b2) for b2 in cl)


def bf_approval_creators(pointers: dict, creators: dict, b1,
                         depth: int | None = None) -> set:
    out = set()
    for b in pointers:
        if depth is not None and bf_depth(pointers, b) != depth:
            continue
        if bf_approves(pointers, creators, b1, b):
            out.add(creators[b])
    return out


def bf_ratifies(pointers: dict, creators: dict, b1, b2, alpha: int,
                quorum: int) -> bool:
    target = bf_depth(pointers, b1) + alpha
    cl2 = bf_reachable(pointers, b2)
    found = set()
    for b in cl2:
        if bf_depth(pointers, b) == target and bf_approves(pointers, creators, b1, b):
            found.add(creators[b])
    return len(found) >= quorum


def bf_ratifies_any_depth(pointers: dict, creators: dict, b1, b2,
                          quorum: int) -> bool:
    """Permissive variant counting approvers anywhere in the closure."""
    cl2 = bf_reachable(pointers, b2)
    found = {creators[b] for b in cl2 if bf_approves(pointers, creators, b1, b)}
    return len(found) >= quorum


def bf_super_ratified(pointers: dict, creators: dict, leader_at, params,
                      quorum: int, cand) -> bool:
    r = bf_depth(pointers, cand)
    if leader_at(r) != creators[cand]:
        return False
    ratifiers = set()
    lead_ok = params.alpha != 1
    for b in pointers:
        if bf_depth(pointers, b) != r + params.beta:
            continue
        if bf_ratifies(pointers, creators, cand, b, params.alpha, quorum):
            ratifiers.add(creators[b])
            if creators[b] == leader_at(r + params.beta):
                lead_ok = True
    return len(ratifiers) >= quorum and lead_ok


def bf_depths(pointers: dict) -> dict:
    """bf_depth of every block, with one shared memo."""
    memo: dict = {}

    def go(x):
        if x not in memo:
            memo[x] = 1 + max((go(p) for p in pointers[x] if p in pointers), default=0)
        return memo[x]

    return {b: go(b) for b in pointers}


def bf_tips(pointers: dict, creators: dict, r: int) -> dict:
    """Creator -> its (depth, id)-greatest tip of the depth-<=r set: a
    member no member points at."""
    depth = bf_depths(pointers)
    prefix = {b for b in pointers if depth[b] <= r}
    pointed = {p for b in prefix for p in pointers[b]}
    out: dict = {}
    for t in prefix - pointed:
        c = creators[t]
        if c not in out or (depth[t], t) > (depth[out[c]], out[c]):
            out[c] = t
    return out


def bf_create_pointers(pointers: dict, creators: dict, p, r: int):
    """The pointer tuple of a new p-block over the depth-<=r set: its tips,
    one per creator, chained to p's (depth, id)-greatest block when they do
    not reach it. None where that block would fork p's chain."""
    depth = bf_depths(pointers)
    tips = bf_tips(pointers, creators, r)
    chosen = set(tips.values())
    own = [b for b in pointers if creators[b] == p]
    if own:
        latest = max(own, key=lambda b: (depth[b], b))
        if depth[latest] > max((depth[t] for t in chosen), default=0):
            return None
        if latest not in bf_closure(pointers, chosen):
            if p in tips:
                return None
            chosen.add(latest)
    return tuple(sorted(chosen))


def bf_admission(pointers: dict, creators: dict, block_pointers,
                 quorum: int) -> str | None:
    """Why a block over the given pointees, all in the graph, is rejected,
    or None when it is admitted: two pointees by one creator, else fewer
    than quorum distinct creators one round below it in its closure."""
    if len({creators[p] for p in block_pointers}) < len(block_pointers):
        return "duplicate-pointer-creator"
    if not block_pointers:
        return None
    depth = 1 + max(bf_depth(pointers, p) for p in block_pointers)
    below = {creators[b] for b in bf_closure(pointers, block_pointers)
             if bf_depth(pointers, b) == depth - 1}
    return None if len(below) >= quorum else "non-cordial"


def bf_common_core(pointers: dict, creators: dict, r: int, params,
                   quorum: int) -> bool:
    """The weak common core at leader round r, by exhaustive search: some
    blocks at r+β by a quorum of creators that all acknowledge some blocks
    at r+α by a quorum of creators. One block per creator at r+β is tried,
    since more blocks only shrink what they all acknowledge; the search is
    exponential in n, so n <= 7."""
    assert len(set(creators.values())) <= 7
    depth = bf_depths(pointers)
    shallow = [u for u in pointers if depth[u] == r + params.alpha]
    deep: dict = {}
    for v in pointers:
        if depth[v] == r + params.beta:
            deep.setdefault(creators[v], []).append(v)
    reach = {v: bf_reachable(pointers, v) for vs in deep.values() for v in vs}
    for combo in combinations(sorted(deep), quorum):
        for picked in product(*(deep[c] for c in combo)):
            core = {creators[u] for u in shallow
                    if all(u in reach[v] for v in picked)}
            if len(core) >= quorum:
                return True
    return False


def bf_rebuild_store(view, mid):
    """A fresh store holding miner mid's accepts, inserted in accept order;
    `RunView.rebuild_store` as it was before the view cached its replays."""
    store = BlockStore(view.scenario.n, view.scenario.f)
    for hid in view.accepted(mid):
        res = store.insert(view.blocks[hid])
        if res.status != "accepted":
            raise ReplayError(f"transcript replay failed for miner {mid}: "
                              f"{hid[:12]} -> {res.status} {res.reason}")
    return store


def bf_parents_first(view, ids, who):
    """`RunView.replay`'s check of an already-replayed set as it was before
    it read closure masks: each block's pointers must all be among the blocks
    before it. Raises ReplayError at the first block whose are not."""
    seen: set[bytes] = set()
    for hid in ids:
        blk = view.blocks[hid]
        if not seen.issuperset(blk.pointers):
            raise ReplayError(f"transcript replay failed for {who}: "
                              f"{hid[:12]} -> buffered None")
        seen.add(block_id(blk))


def bf_ordering_equivalence(view):
    """The ordering-equivalence verifier as it was before it replayed each
    distinct accepted set once: one store rebuild and one reference order
    per correct miner. A replay failure raises."""
    schedule = view.schedule()
    for mid in view.correct:
        store = bf_rebuild_store(view, mid)
        seq, suppressed = reference_order(store, schedule, view.params)
        want = [b.hex() for b in seq]
        got = view.delivered.get(mid, [])
        if want != got:
            k = prefix_divergence(want, got)
            return Verdict("ordering-equivalence", False,
                           f"miner {mid}: incremental/"
                           f"reference mismatch at {k} ({len(got)} vs {len(want)})")
        if {b.hex() for b in suppressed} != set(view.suppressed.get(mid, [])):
            return Verdict("ordering-equivalence", False,
                           f"miner {mid}: suppressed-set mismatch")
    return Verdict("ordering-equivalence", True,
                   f"{len(view.correct)} miners match the reference order")


def bf_model_conformance(view):
    """The model-conformance verifier as it was before it kept a pending
    send as its time: one list of send times per (from, to, ids)."""
    pending: dict[tuple, list[int]] = {}
    for ev in view.sends:
        pending.setdefault((ev["from"], ev["to"], ev["ids"]), []).append(ev["t"])
    sc = view.scenario
    gst = sc.gst if sc.model == MODEL_ES else float("inf")
    bound = sc.delay_bound
    for ev in view.delivers:
        key = (ev["from"], ev["to"], ev["ids"])
        times = pending.get(key)
        if not times:
            return Verdict("model-conformance", False, f"delivery without send: {key[:2]}")
        t0 = times.pop(0)
        t = ev["t"]
        if t < t0:
            return Verdict("model-conformance", False,
                           f"delivery at {t} before its send at {t0}: {key[:2]}")
        if t0 >= gst and t - t0 > bound:
            return Verdict("model-conformance", False,
                           f"post-GST delay {t - t0} exceeds bound {bound}")
    left = sum(map(len, pending.values()))
    if left:
        return Verdict("model-conformance", False, f"{left} sends never delivered")
    return Verdict("model-conformance", True, f"{len(view.delivers)} deliveries matched")


def bf_reference_order(store, schedule, params):
    """`ordering.reference_order` as it was before it walked pointers: each
    fragment is the set difference of two whole-history closures."""
    chain: list[bytes] = []
    cur = super_ratified_leader(store, schedule, params)
    while cur is not None:
        chain.append(cur)
        cur = prev_ratified_leader(store, schedule, params, cur)
    chain.reverse()
    order: list[bytes] = []
    suppressed: set[bytes] = set()
    for b2, b1 in zip([None, *chain], chain):
        frag = closure(store, [b1]) - closure(store, [b2] if b2 else [])
        order += [x for x in topo_sorted(store, frag) if store.approves(x, b1)]
        suppressed |= {x for x in frag if not store.approves(x, b1)}
    return order, suppressed


def bf_creators_at(store, d):
    """The creators of round d's blocks, read block by block, independent of
    the per-round record behind `BlockStore.creators_at`."""
    return {store.creator_of(b) for b in store.blocks_at(d)}


def bf_cordial_round(store, p):
    """`BlockStore.cordial_round` as it was before the store kept its quorum
    round: a scan down from the deepest round for one whose blocks have a
    quorum of creators, stopping at p's deepest block."""
    own_max = max((store.depth_of(b) for b in blocks_by(store, p)), default=0)
    for d in range(store.max_depth(), max(own_max, 1) - 1, -1):
        if len(bf_creators_at(store, d)) >= store.quorum:
            return d
    return 0 if own_max == 0 else None


# -- store queries only tests use -------------------------------------------


def acknowledges(store, a, b) -> bool:
    """Strict: a non-empty pointer path leads from a to b, read from a's
    closure mask. An id the store lacks raises UnknownBlock."""
    return store.covers(store.closure_mask(a), b) and a != b


def closure(store, roots) -> set:
    """All accepted blocks reachable from the roots, roots included, read
    from the store's closure masks."""
    mask = 0
    for r in roots:
        mask |= store.closure_mask(r)
    return {b for b in store.accepted_ids() if store.covers(mask, b)}


def blocks_by(store, q) -> list:
    """q's accepted blocks in acceptance order."""
    return [b for b in store.accepted_ids() if store.creator_of(b) == q]


def creator_ack_mask(store, q) -> int:
    """Union of the closures of q's accepted blocks: what q has shown
    evidence of knowing."""
    mask = 0
    for b in blocks_by(store, q):
        mask |= store.closure_mask(b)
    return mask


def approval_creators(store, b1, depth: int | None = None) -> set:
    """Distinct creators of accepted blocks approving b1, optionally at one
    fixed depth."""
    rows = store.accepted_ids() if depth is None else store.blocks_at(depth)
    return {store.creator_of(b) for b in rows if store.approves(b1, b)}


def is_super_ratified(store, schedule, params, cand) -> bool:
    """Whether one specific leader block meets the library's decision rule."""
    r = store.depth_of(cand)
    if schedule.leader_at(r) != store.creator_of(cand):
        return False
    return _super_ratified(store, schedule, params, cand, r)
