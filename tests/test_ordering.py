"""Super-ratified-leader detection, fragment delivery, and agreement between
the incremental path and the from-scratch reference."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocklace.blocks import block_id
from blocklace.leaders import CoinOracle, LeaderSchedule
from blocklace.ordering import (
    ASYNC_PARAMS,
    ES_PARAMS,
    DeliveryLog,
    WaveParams,
    extend_delivery,
    leader_blocks_at,
    params_for,
    prev_ratified_leader,
    reference_order,
    super_ratified_leader,
    topo_sorted,
)
from blocklace.store import BlockStore

from conftest import fresh_store, grow_full, grow_random
from helpers_oracle import (
    acknowledges,
    bf_reference_order,
    bf_super_ratified,
    closure,
    graph_of,
)

ES_SCHED = LeaderSchedule(4, 2)


def _schedule(params, seed: int, n: int, f: int) -> LeaderSchedule:
    """Round-robin leaders under eventual synchrony; the seed's coin under
    asynchrony."""
    if params.model == "asynchrony":
        coin = CoinOracle(seed, n, f, params.leader_stride)
        return LeaderSchedule(n, params.leader_stride, coin.value)
    return LeaderSchedule(n, params.leader_stride)


def test_wave_params_pinned():
    assert (ES_PARAMS.alpha, ES_PARAMS.beta, ES_PARAMS.leader_stride) == (1, 2, 2)
    assert (ASYNC_PARAMS.alpha, ASYNC_PARAMS.beta, ASYNC_PARAMS.leader_stride) == (2, 5, 5)
    with pytest.raises(ValueError):
        WaveParams(1, 1, 2, "eventual-synchrony")
    with pytest.raises(ValueError):
        WaveParams(1, 2, 2, "bizarre")
    assert (params_for("eventual-synchrony"), params_for("asynchrony")) == (
        ES_PARAMS, ASYNC_PARAMS)
    with pytest.raises(ValueError, match="^unknown model 'bizarre'$"):
        params_for("bizarre")


def test_topo_sort_cases(full_lattice):
    store, made = full_lattice
    assert topo_sorted(store, []) == []
    chain = [made[(0, 3)], made[(0, 1)], made[(0, 2)]]
    assert topo_sorted(store, chain) == [made[(0, 1)], made[(0, 2)], made[(0, 3)]]
    round1 = [made[(2, 1)], made[(0, 1)], made[(3, 1)], made[(1, 1)]]
    assert topo_sorted(store, round1) == [made[(p, 1)] for p in range(4)]


def test_topo_sort_respects_acknowledgement():
    store, keyring = fresh_store()
    rng = random.Random(0)
    grow_random(store, keyring, rng, rounds=5)
    order = topo_sorted(store, store.accepted_ids())
    pos = {bid: i for i, bid in enumerate(order)}
    for a in order:
        for b in order:
            if acknowledges(store, a, b):
                assert pos[b] < pos[a]


def test_leader_blocks(full_lattice):
    store, made = full_lattice
    got = [leader_blocks_at(store, ES_SCHED, d) for d in range(1, 5)]
    assert got == [[], [made[(1, 2)]], [], [made[(2, 4)]]]


def test_no_leader_rounds_no_leaders():
    store, _ = fresh_store()
    grow_full(store, 1)
    assert leader_blocks_at(store, ES_SCHED, 1) == []


def test_super_ratified_needs_beta_rounds():
    store, _ = fresh_store()
    grow_full(store, 2)
    assert super_ratified_leader(store, ES_SCHED, ES_PARAMS) is None


def test_super_ratified_full_lattice(full_lattice):
    store, made = full_lattice
    got = super_ratified_leader(store, ES_SCHED, ES_PARAMS)
    assert got == made[(1, 2)]
    pointers, creators = graph_of(store)
    assert bf_super_ratified(pointers, creators, ES_SCHED.leader_at, ES_PARAMS,
                             store.quorum, got)


def test_super_ratified_requires_round_beta_leader_block():
    """Withholding the leader block of round r+beta blocks the decision
    under eventual synchrony."""
    store, keyring = fresh_store()
    made = grow_full(store, 3)
    partial = BlockStore(4, 1, keyring)
    for bid in store.accepted_ids():
        partial.insert(store.get(bid))
    # Round 4 filled by everyone except leader(4) = miner 2.
    for p in (0, 1, 3):
        partial.create_block(p, f"r4p{p}".encode(), 3)
    assert super_ratified_leader(partial, ES_SCHED, ES_PARAMS) is None
    partial.create_block(2, b"r4p2", 3)
    got = super_ratified_leader(partial, ES_SCHED, ES_PARAMS)
    assert got == made[(1, 2)]


def test_first_delivery_is_leader_closure(full_lattice):
    store, made = full_lattice
    log = DeliveryLog()
    new = extend_delivery(store, log, ES_SCHED, ES_PARAMS)
    want = topo_sorted(store, closure(store, [made[(1, 2)]]))
    assert new == want
    assert len(new) == 5
    assert log.current_leader == made[(1, 2)]
    assert log.leader_rounds == [2] * 5


def test_no_anchor_no_delivery():
    store, _ = fresh_store()
    grow_full(store, 2)
    log = DeliveryLog()
    assert extend_delivery(store, log, ES_SCHED, ES_PARAMS) == []
    assert log.delivered == []
    assert log.current_leader is None


def test_reference_empty_store():
    store, _ = fresh_store()
    assert reference_order(store, ES_SCHED, ES_PARAMS) == ([], set())


def test_incremental_matches_reference_full_growth():
    store, keyring = fresh_store()
    log = DeliveryLog()

    def check(_d):
        extend_delivery(store, log, ES_SCHED, ES_PARAMS)
        seq, suppressed = reference_order(store, ES_SCHED, ES_PARAMS)
        assert log.delivered == seq
        assert log.suppressed == suppressed

    for d in range(1, 9):
        for p in range(4):
            store.create_block(p, f"p{p}r{d}".encode(), d - 1)
            check(d)


def test_equivocation_suppressed_not_delivered():
    """Both fork halves sit under the anchor: neither is delivered, both are
    suppressed, and every other closure block is delivered."""
    store, keyring = fresh_store()
    made = grow_full(store, 1)
    round1 = [made[(p, 1)] for p in range(4)]
    from conftest import forge
    e1 = forge(store, keyring, 3, b"fork-a", round1)
    e2 = forge(store, keyring, 3, b"fork-b", round1)
    r2 = {p: block_id(store.create_block(p, f"p{p}r2".encode(), 1))
          for p in range(3)}
    # Round 3 covers both halves through different miners.
    r3 = {
        0: forge(store, keyring, 0, b"r3-0", [r2[0], r2[1], r2[2], e1]),
        1: forge(store, keyring, 1, b"r3-1", [r2[0], r2[1], r2[2], e2]),
        2: forge(store, keyring, 2, b"r3-2", [r2[0], r2[1], r2[2]]),
    }
    r4 = {p: forge(store, keyring, p, f"r4-{p}".encode(), list(r3.values()))
          for p in (0, 1, 2)}
    r5 = {p: forge(store, keyring, p, f"r5-{p}".encode(), list(r4.values()))
          for p in (0, 1, 2)}
    for p in (0, 1, 2):
        forge(store, keyring, p, f"r6-{p}".encode(), list(r5.values()))
    # The equivocator rejoins with one deep block chaining from e1 so that
    # leader(6) = miner 3 exists and the round-4 leader gets super-ratified.
    forge(store, keyring, 3, b"r6-3", list(r5.values()) + [e1])
    log = DeliveryLog()
    extend_delivery(store, log, ES_SCHED, ES_PARAMS)
    anchor = log.current_leader
    assert anchor == r4[2]  # leader(4) = miner 2
    assert acknowledges(store, anchor, e1) and acknowledges(store, anchor, e2)
    assert e1 in log.suppressed and e2 in log.suppressed
    assert e1 not in log.delivered and e2 not in log.delivered
    assert set(log.delivered) == closure(store, [anchor]) - {e1, e2}
    seq, suppressed = reference_order(store, ES_SCHED, ES_PARAMS)
    assert log.delivered == seq
    assert log.suppressed == suppressed


def test_prev_ratified_leader_chain(full_lattice):
    store, made = full_lattice
    # Extend to 6 full rounds so leader(4) is ratified by round-6 blocks.
    for d in (5, 6):
        for p in range(4):
            store.create_block(p, f"x{p}{d}".encode(), d - 1)
    anchor = super_ratified_leader(store, ES_SCHED, ES_PARAMS)
    assert store.depth_of(anchor) == 4
    prev = prev_ratified_leader(store, ES_SCHED, ES_PARAMS, anchor)
    assert prev == made[(1, 2)]
    assert prev_ratified_leader(store, ES_SCHED, ES_PARAMS, prev) is None


def test_logs_with_different_predecessors_cut_their_own_fragments():
    """The table keeps the first fragment cut of a leader block, and hands it
    only to a caller with the predecessor it was cut after: one whose
    predecessor is deeper gets its own, smaller fragment."""
    store, _ = fresh_store()
    made = grow_full(store, 4)
    leader, below = made[(2, 4)], made[(1, 2)]
    whole = topo_sorted(store, closure(store, [leader]))
    rest = topo_sorted(store, closure(store, [leader]) - closure(store, [below]))
    assert store.fragment(leader, None) == (tuple(whole), ())
    assert store.fragment(leader, below) == (tuple(rest), ())
    assert store.table.fragments[store.index_of(leader)] == (-1, tuple(whole), ())


def test_a_predecessor_past_an_unrevealed_coin_is_not_kept():
    """While round 4's leader is unknown, the round-6 anchor's walk passes
    over round 4 to round 2. No walk is kept, so once the coin is revealed
    another log's walk finds the round-4 leader and agrees with the
    reference."""
    store, _ = fresh_store()
    made = grow_full(store, 8)
    leaders = {2: 1, 6: 3, 8: 0}
    sched = LeaderSchedule(4, 2, leaders.get)
    early = DeliveryLog()
    extend_delivery(store, early, sched, ES_PARAMS)
    assert early.current_leader == made[(3, 6)] and set(early.leader_rounds) == {2, 6}
    leaders[4] = 2
    late = DeliveryLog()
    extend_delivery(store, late, sched, ES_PARAMS)
    assert set(late.leader_rounds) == {2, 4, 6}
    assert (late.delivered, late.suppressed) == reference_order(store, sched, ES_PARAMS)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(4, 1), (7, 2)]), st.integers(0, 2 ** 16),
       st.integers(1, 22), st.booleans(),
       st.sampled_from([ES_PARAMS, ASYNC_PARAMS]))
def test_reference_order_matches_closure_difference(nf, seed, rounds, equivocate,
                                                    params):
    """The pointer walk gives the order and suppressed set that diffing
    whole-history closures gives, with and without equivocators."""
    n, f = nf
    store, keyring = fresh_store(n=n, f=f, seed=seed)
    forkers = {p: 0.5 for p in range(n - f, n)} if equivocate else {}
    grow_random(store, keyring, random.Random(seed), rounds, forkers)
    sched = _schedule(params, seed, n, f)
    assert (reference_order(store, sched, params)
            == bf_reference_order(store, sched, params))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(4, 1), (7, 2)]), st.integers(0, 2 ** 16),
       st.integers(1, 12), st.booleans(),
       st.sampled_from([ES_PARAMS, ASYNC_PARAMS]))
def test_tallied_anchor_matches_brute_force_rule(nf, seed, rounds, equivocate, params):
    """Fed a blocklace block by block, extend_delivery anchors on the deepest
    leader block above its previous anchor that the brute-force rule
    accepts, and keeps its anchor when there is none."""
    n, f = nf
    grown, keyring = fresh_store(n=n, f=f, seed=seed)
    forkers = {p: 0.5 for p in range(n - f, n)} if equivocate else {}
    grow_random(grown, keyring, random.Random(seed), rounds, forkers)
    sched = _schedule(params, seed, n, f)
    store, log = BlockStore(n, f, keyring), DeliveryLog()
    pointers, creators, depth = {}, {}, {}
    ratified = set()  # leader blocks the brute-force rule accepts so far
    for bid in grown.accepted_ids():
        blk = grown.get(bid)
        pointers[bid], creators[bid] = tuple(blk.pointers), blk.creator
        depth[bid] = 1 + max((depth[p] for p in blk.pointers), default=0)
        # Only a block beta rounds deeper can change a candidate's verdict.
        for cand in pointers:
            if depth[cand] + params.beta == depth[bid] and bf_super_ratified(
                    pointers, creators, sched.leader_at, params, store.quorum, cand):
                ratified.add(cand)
        floor, before = log.current_round, log.current_leader
        store.insert(blk)
        extend_delivery(store, log, sched, params)
        above = [c for c in ratified if depth[c] > floor]
        want = min(above, key=lambda c: (-depth[c], c)) if above else before
        assert log.current_leader == want


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(4, 1), (7, 2)]), st.integers(0, 2 ** 16),
       st.integers(1, 14), st.booleans(),
       st.sampled_from([ES_PARAMS, ASYNC_PARAMS]))
@example((7, 2), 4, 12, True, ES_PARAMS)  # suppresses 15 blocks
def test_delivered_and_suppressed_are_the_anchors_closure(nf, seed, rounds, equivocate,
                                                          params):
    """Fed a blocklace block by block, extend_delivery has delivered or
    suppressed exactly its anchor's closure (nothing before the first
    anchor), delivers no block twice and gives each delivered block one
    leader round."""
    n, f = nf
    grown, keyring = fresh_store(n=n, f=f, seed=seed)
    forkers = {p: 0.5 for p in range(n - f, n)} if equivocate else {}
    grow_random(grown, keyring, random.Random(seed), rounds, forkers)
    sched = _schedule(params, seed, n, f)
    store, log = BlockStore(n, f, keyring), DeliveryLog()
    for bid in grown.accepted_ids():
        store.insert(grown.get(bid))
        extend_delivery(store, log, sched, params)
        anchor = log.current_leader
        want = 0 if anchor is None else store.closure_mask(anchor)
        assert store.mask_of([*log.delivered, *log.suppressed]) == want
        assert len(set(log.delivered)) == len(log.delivered)
        assert len(log.leader_rounds) == len(log.delivered)


def _grown_store(seed: int, n: int, f: int, rounds: int, equivocate: bool):
    store, keyring = fresh_store(n=n, f=f, seed=seed)
    rng = random.Random(seed * 13 + 7)
    eq = {n - 1: 0.5} if equivocate else {}
    snapshots = []

    def snap(_d):
        snapshots.append(len(store.accepted_ids()))

    grow_random(store, keyring, rng, rounds=rounds, equivocators=eq, on_round=snap)
    return store, keyring, snapshots


@pytest.mark.parametrize("n,f", [(4, 1), (7, 2)])
@pytest.mark.parametrize("params", [ES_PARAMS, ASYNC_PARAMS], ids=["es", "async"])
def test_reference_prefix_monotone_on_snapshots(n, f, params):
    """Nested snapshots of a growing blocklace give prefix-ordered outputs."""
    for seed in range(6):
        store, keyring, snapshots = _grown_store(seed, n, f, rounds=9,
                                                 equivocate=seed % 2 == 0)
        sched = _schedule(params, seed, n, f)
        ids = store.accepted_ids()
        prev_seq = []
        for cut in snapshots:
            sub = BlockStore(n, f, keyring)
            for bid in ids[:cut]:
                sub.insert(store.get(bid))
            seq, _ = reference_order(sub, sched, params)
            assert seq[:len(prev_seq)] == prev_seq
            prev_seq = seq


def test_consistency_of_independently_grown_stores():
    """Two stores sharing a backbone deliver prefix-comparable sequences."""
    for seed in range(8):
        store, keyring, _ = _grown_store(seed, 4, 1, rounds=8, equivocate=True)
        ids = store.accepted_ids()
        rng = random.Random(seed)
        a = BlockStore(4, 1, keyring)
        b = BlockStore(4, 1, keyring)
        for bid in ids:
            blk = store.get(bid)
            a.insert(blk)
            if rng.random() < 0.8:
                b.insert(blk)
        seq_a, _ = reference_order(a, ES_SCHED, ES_PARAMS)
        seq_b, _ = reference_order(b, ES_SCHED, ES_PARAMS)
        shorter = min(len(seq_a), len(seq_b))
        assert seq_a[:shorter] == seq_b[:shorter]
