"""Super-ratified-leader detection, fragment delivery, and agreement between
the incremental path and the from-scratch reference."""

from __future__ import annotations

import random

import pytest

from blocklace.blocks import block_id
from blocklace.leaders import CoinOracle, LeaderSchedule
from blocklace.ordering import (
    ASYNC_PARAMS,
    ES_PARAMS,
    DeliveryLog,
    WaveParams,
    extend_delivery,
    leader_blocks_at,
    prev_ratified_leader,
    reference_order,
    super_ratified_leader,
    topo_sorted,
)
from blocklace.store import BlockStore

from conftest import fresh_store, grow_full, grow_random
from helpers_oracle import bf_super_ratified, graph_of

ES_SCHED = LeaderSchedule(4, 2)


def test_wave_params_pinned():
    assert (ES_PARAMS.alpha, ES_PARAMS.beta, ES_PARAMS.leader_stride) == (1, 2, 2)
    assert (ASYNC_PARAMS.alpha, ASYNC_PARAMS.beta, ASYNC_PARAMS.leader_stride) == (2, 5, 5)
    with pytest.raises(ValueError):
        WaveParams(1, 1, 2, "eventual-synchrony")
    with pytest.raises(ValueError):
        WaveParams(1, 2, 2, "bizarre")


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
            if store.acknowledges(a, b):
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
        partial.create_block(p, f"r4p{p}".encode(), partial.blocks_prefix(3))
    assert super_ratified_leader(partial, ES_SCHED, ES_PARAMS) is None
    partial.create_block(2, b"r4p2", partial.blocks_prefix(3))
    got = super_ratified_leader(partial, ES_SCHED, ES_PARAMS)
    assert got == made[(1, 2)]


def test_first_delivery_is_leader_closure(full_lattice):
    store, made = full_lattice
    log = DeliveryLog()
    new = extend_delivery(store, log, ES_SCHED, ES_PARAMS)
    want = topo_sorted(store, store.closure([made[(1, 2)]]))
    assert new == want
    assert len(new) == 5
    assert log.current_leader == made[(1, 2)]
    assert [r["leader_round"] for r in log.records] == [2] * 5


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
            store.create_block(p, f"p{p}r{d}".encode(), store.blocks_prefix(d - 1))
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
    r2 = {p: block_id(store.create_block(p, f"p{p}r2".encode(),
                                         store.blocks_prefix(1)))
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
    assert store.acknowledges(anchor, e1) and store.acknowledges(anchor, e2)
    assert e1 in log.suppressed and e2 in log.suppressed
    assert e1 not in log.delivered_set and e2 not in log.delivered_set
    assert set(log.delivered) == store.closure([anchor]) - {e1, e2}
    seq, suppressed = reference_order(store, ES_SCHED, ES_PARAMS)
    assert log.delivered == seq
    assert log.suppressed == suppressed


def test_prev_ratified_leader_chain(full_lattice):
    store, made = full_lattice
    # Extend to 6 full rounds so leader(4) is ratified by round-6 blocks.
    for d in (5, 6):
        for p in range(4):
            store.create_block(p, f"x{p}{d}".encode(), store.blocks_prefix(d - 1))
    anchor = super_ratified_leader(store, ES_SCHED, ES_PARAMS)
    assert store.depth_of(anchor) == 4
    prev = prev_ratified_leader(store, ES_SCHED, ES_PARAMS, anchor)
    assert prev == made[(1, 2)]
    assert prev_ratified_leader(store, ES_SCHED, ES_PARAMS, prev) is None


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
        if params.model == "asynchrony":
            coin = CoinOracle(seed, n, f, params.leader_stride)
            sched = LeaderSchedule(n, params.leader_stride, coin.value)
        else:
            sched = LeaderSchedule(n, params.leader_stride)
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
