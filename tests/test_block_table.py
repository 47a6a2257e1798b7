"""The run-wide block table: stores that share one agree, query by query,
with stores that each have their own, and a store never answers from
blocks that only the table holds."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklace.blocks import Keyring, block_id, make_block
from blocklace.leaders import LeaderSchedule
from blocklace.miner import MinerState, ProtocolConfig
from blocklace.ordering import (
    ES_PARAMS,
    MODEL_ASYNC,
    MODEL_ES,
    leader_blocks_at,
)
from blocklace.simnet import ByzSpec, Scenario, Simulation
from blocklace.store import BlockStore, BlockTable, UnknownBlock

from conftest import grow_full
from helpers_oracle import creator_ack_mask


@st.composite
def faulty_runs(draw, sizes):
    """A finished simulation at one of the (n, f) sizes, either model,
    uniform 1-3 tick delays, with up to f crashing, silent or equivocating
    miners."""
    n, f = draw(st.sampled_from(sizes))
    model = draw(st.sampled_from([MODEL_ES, MODEL_ASYNC]))
    faulty = draw(st.lists(st.integers(0, n - 1), max_size=f, unique=True))
    byzantine = {}
    for q in faulty:
        kind = draw(st.sampled_from(["crash", "silent", "equivocate"]))
        byzantine[q] = ByzSpec(kind, rate=draw(st.sampled_from([0.5, 1.0])),
                               round=draw(st.integers(2, 6)) if kind == "crash" else 0)
    sc = Scenario(n=n, f=f, model=model, seed=draw(st.integers(0, 2 ** 16)),
                  rounds=draw(st.integers(5, 12)), payload_size=8,
                  delays={"kind": "uniform", "min": 1, "max": 3}, byzantine=byzantine)
    sim = Simulation(sc)
    sim.run()
    return sim


def listed(store: BlockStore, mask: int) -> list[bytes]:
    return [block_id(b) for b in store.blocks_in_mask(mask)]


def backlog(store: BlockStore, bid: bytes) -> int:
    """MinerState.step's backlog mask for own block bid, with the
    equivocators known now."""
    mask, below = store.closure_mask(bid), store.depth_of(bid) - 1
    for p in store.get(bid).pointers:
        if store.depth_of(p) == below and not store.is_faulty(store.creator_of(p)):
            mask &= ~(1 << store.index_of(p))
    return mask


def leader_candidates(store: BlockStore, sim: Simulation) -> list[bytes]:
    stride = sim.params.leader_stride
    return [c for r in range(stride, store.max_depth() + 1, stride)
            for c in leader_blocks_at(store, sim.schedule, r)]


def assert_questions_answer_by_brute_force(store: BlockStore, sim: Simulation) -> None:
    """Each question the store answers from its masks, against the same
    answer built from set-level queries."""
    ids, alpha, beta = store.accepted_ids(), sim.params.alpha, sim.params.beta
    for c in leader_candidates(store, sim):
        d = store.depth_of(c) + beta
        assert store.ratifying_creators(c, d, alpha) == {
            store.creator_of(b) for b in store.blocks_at(d) if store.ratifies(c, b, alpha)}
    for q in range(store.n):
        ack = creator_ack_mask(store, q)
        assert [store.acknowledged_by(q, b) for b in ids] == [store.covers(ack, b) for b in ids]
        for d in range(1, store.max_depth() + 1):
            assert store.blocks_by_at(q, d) == sorted(
                b for b in store.blocks_at(d) if store.creator_of(b) == q)
    half = store.mask_of(ids[::2])
    assert [store.covers(half, b) for b in ids] == [k % 2 == 0 for k in range(len(ids))]
    assert store.misplaced(ids) is None
    # The last block with pointers, moved to just before its latest pointee.
    last = next(b for b in reversed(ids) if store.get(b).pointers)
    pointee = max(store.get(last).pointers, key=ids.index)
    k = ids.index(pointee)
    moved = [b for b in ids if b != last]
    moved.insert(k, last)
    assert store.misplaced(moved) == k


def miner_queries(store: BlockStore, sim: Simulation, mid: int) -> dict:
    """Every query a miner makes of its store, by block id, not by bit."""
    ids, n, params = store.accepted_ids(), store.n, sim.params
    cands = leader_candidates(store, sim)
    return {
        "ids": ids,
        "closures": {b: listed(store, store.closure_mask(b)) for b in ids},
        "tips": [store.tips(r) for r in range(store.max_depth() + 2)],
        "rounds": (store.quorum_round, store.max_depth()),
        "cordial": [store.cordial_round(p) for p in range(n)],
        "faulty": [store.is_faulty(q) for q in range(n)],
        "acks": [listed(store, store._creator_ack.get(q, 0)) for q in range(n)],
        "ratifies": {(c, b): store.ratifies(c, b, params.alpha) for c in cands for b in ids
                     if store.depth_of(b) == store.depth_of(c) + params.beta},
        "backlogs": {(b, q): listed(store, backlog(store, b) & ~store._creator_ack.get(q, 0))
                     for b in ids if store.creator_of(b) == mid for q in range(n)},
    }


@settings(max_examples=30, deadline=None)
@given(faulty_runs(((4, 1), (7, 2))))
def test_shared_table_stores_answer_like_private_ones(sim):
    """Each correct miner's accept order, replayed into a store with a
    private table, is accepted block by block on arrival, and the replay
    answers every miner query as the miner's own store, which shares one
    table with every other miner's store. Each store's per-creator
    evidence is the union of that creator's closures, and each store
    question agrees with its brute-force answer."""
    table = sim.miners[0].store.table
    assert all(m.store.table is table for m in sim.miners)
    for m in sim.miners:
        if m.id in sim.scenario.byzantine:
            continue
        replay = BlockStore(sim.scenario.n, sim.scenario.f, sim.keyring)
        for bid in m.store.accepted_ids():
            assert replay.insert(m.store.get(bid)).newly_accepted == (bid,)
        assert replay.table is not table
        assert miner_queries(replay, sim, m.id) == miner_queries(m.store, sim, m.id)
        for store in (m.store, replay):
            assert all(store._creator_ack.get(q, 0) == creator_ack_mask(store, q)
                       for q in range(store.n))
            assert_questions_answer_by_brute_force(store, sim)


@settings(max_examples=25, deadline=None)
@given(faulty_runs(((4, 1), (7, 2), (16, 5))))
def test_table_memos_match_a_memo_free_replay(sim):
    """Every verdict and fragment the run's table kept is what the memo-free
    rule answers on a replay of the whole table into a store with a private
    one: each answer reads only table facts, never the store that asked.
    Table order is parents-first, so the replay accepts each block on
    arrival and its indices are the table's."""
    table = sim.miners[0].store.table
    replay = BlockStore(sim.scenario.n, sim.scenario.f, sim.keyring)
    for bid, blk in zip(table.ids, table.blocks):
        assert replay.insert(blk).newly_accepted == (bid,)
    assert replay.table.ids == table.ids
    if any(m.log.delivered for m in sim.miners):
        assert table.verdicts and table.fragments
    for (cand, i, alpha), verdict in table.verdicts.items():
        assert replay._ratification(cand, i, alpha) == verdict
    assert not replay.table.verdicts
    for i, (placed, delivered, suppressed) in table.fragments.items():
        assert replay.fragment(table.ids[i], placed) == (delivered, suppressed)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_each_verdict_is_computed_once_per_table(data):
    """The decision rule, the walk back through ratified leaders and the
    public ratifies all read one kept verdict: over a whole run, the rule is
    evaluated at most once per (candidate, block, alpha) and table."""
    calls: Counter = Counter()
    rule = BlockStore._ratification

    def counted(store, i1, i2, alpha):
        calls[store.table, i1, i2, alpha] += 1
        return rule(store, i1, i2, alpha)

    with patch.object(BlockStore, "_ratification", counted):
        sim = data.draw(faulty_runs(((4, 1), (7, 2))))
    table = sim.miners[0].store.table
    assert set(table.verdicts) == {key[1:] for key in calls}
    assert all(count == 1 for count in calls.values())


def shared_pair(keyring: Keyring) -> tuple[BlockStore, BlockStore]:
    table = BlockTable()
    return BlockStore(4, 1, keyring, table), BlockStore(4, 1, keyring, table)


def test_a_block_only_the_table_holds_is_not_in_the_store():
    keyring = Keyring(0, 4)
    a, b = shared_pair(keyring)
    made = grow_full(a, 2)
    blk = made[(0, 1)]
    assert blk in a.table.index
    assert blk not in b
    with pytest.raises(UnknownBlock):
        b.get(blk)
    child = a.get(made[(1, 2)])
    assert b.insert(child).status == "buffered"
    # Signatures are checked by every store: the table records none.
    forged = replace(a.get(blk), signature=bytes(32))
    res = b.insert(forged)
    assert (res.status, res.reason) == ("rejected", "bad-signature")
    assert blk not in b
    for p in range(4):
        b.insert(a.get(made[(p, 1)]))
    assert block_id(child) in b and not b.buffer


def self_pointing(block, forged_id: bytes):
    """block with its id forged onto forged_id: a block that really named
    its own id would need a SHA-256 fixed point."""
    object.__setattr__(block, "_id", forged_id)
    return block


def test_a_self_pointing_block_is_rejected_not_buffered():
    """A self-pointer is refused when it arrives, never buffered while its
    own id waits, by a store with a private table and by two sharing one,
    and never written to the table. Each store still MACs it first."""
    keyring = Keyring(0, 4)
    source = BlockStore(4, 1, keyring)
    parents = list(grow_full(source, 1).values())
    forged_id = bytes([7]) * 32
    blk = self_pointing(keyring.sign(make_block(0, b"self", [*parents, forged_id])), forged_id)
    for stores in ([BlockStore(4, 1, keyring)], shared_pair(keyring)):
        for store in stores:
            for bid in parents:
                store.insert(source.get(bid))
            res = store.insert(blk)
            assert (res.status, res.reason) == ("rejected", "self-pointer")
            assert store.violations[-1] == (forged_id, "self-pointer")
            assert forged_id not in store and not store.buffer
            assert forged_id not in store.table.index
            unsigned = self_pointing(replace(blk, signature=bytes(32)), forged_id)
            res = store.insert(unsigned)
            assert (res.status, res.reason) == ("rejected", "bad-signature")


def test_a_block_another_store_rejected_waits_for_the_cascade():
    """A non-cordial block another store rejected is buffered while its
    pointees are missing here, and rejected when the cascade releases it,
    as in a store with its own table."""
    keyring = Keyring(0, 4)
    a, b = shared_pair(keyring)
    own = BlockStore(4, 1, keyring)
    made = grow_full(a, 1)
    thin = keyring.sign(make_block(2, b"thin", [made[(0, 1)], made[(1, 1)]]))
    assert a.insert(thin).reason == "non-cordial"
    unsigned = make_block(3, b"unsigned", [])
    for store in (b, own):
        assert store.insert(thin).status == "buffered"
        store.insert(a.get(made[(0, 1)]))
        store.insert(unsigned)
        assert store.violations == [(block_id(unsigned), "bad-signature")]
        res = store.insert(a.get(made[(1, 1)]))
        assert (res.status, res.newly_accepted) == ("accepted", (made[(1, 1)],))
        assert store.violations == [(block_id(unsigned), "bad-signature"),
                                    (block_id(thin), "non-cordial")]
        assert block_id(thin) not in store and not store.buffer


def test_store_wide_queries_read_the_store_not_the_table():
    """The table holds blocks the miner's store does not, before and
    between the ones it does: its length, accepted ids and flush package
    name its own blocks only."""
    keyring = Keyring(0, 4)
    table = BlockTable()
    other = BlockStore(4, 1, keyring, table)
    made = grow_full(other, 2)
    miner = MinerState(1, ProtocolConfig(4, 1, ES_PARAMS), LeaderSchedule(4, 2), [],
                       keyring, None, table)
    held = [made[(p, 1)] for p in (1, 2, 3)]
    for bid in held:
        miner.store.insert(other.get(bid))
    assert len(miner.store) == 3 and miner.store.accepted_ids() == held
    assert len(table.ids) == 8
    pkg = miner.flush_package(0)
    assert sorted(block_id(b) for b in pkg.blocks) == sorted(held)
