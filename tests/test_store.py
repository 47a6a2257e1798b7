"""The blocklace store: insertion semantics and every analysis predicate,
cross-checked against brute-force reachability oracles."""

from __future__ import annotations

import itertools
import random

import pytest

from blocklace.blocks import block_id, make_block
from blocklace.store import BlockStore, WouldEquivocate

from conftest import forge, fresh_store, grow_full, grow_random
from helpers_oracle import (
    bf_acknowledges,
    bf_approval_creators,
    bf_approves,
    bf_closure,
    bf_depth,
    bf_equivocation,
    bf_ratifies,
    graph_of,
)


# -- insertion --------------------------------------------------------------

def test_initial_block_accepted_at_depth_one():
    store, _ = fresh_store()
    blk = store.create_block(0, b"init", set())
    assert store.depth_of(block_id(blk)) == 1
    assert blk.pointers == ()


def test_buffering_and_cascade():
    store, keyring = fresh_store()
    made = grow_full(store, 1)
    round1 = [made[(p, 1)] for p in range(4)]

    other, _ = fresh_store()
    blk2 = keyring.sign(make_block(0, b"r2", round1))
    res = other.insert(blk2)
    assert res.status == "buffered"
    # Three parents arrive: still dangling on the fourth.
    for bid in round1[:3]:
        other.insert(store.get(bid))
    assert block_id(blk2) in other.buffer
    res = other.insert(store.get(round1[3]))
    assert res.status == "accepted"
    assert block_id(blk2) in set(res.newly_accepted)
    assert not other.buffer


def test_non_cordial_block_rejected():
    store, keyring = fresh_store()
    made = grow_full(store, 1)
    two = [made[(0, 1)], made[(1, 1)]]
    bad = keyring.sign(make_block(2, b"thin", two))
    res = store.insert(bad)
    assert res.status == "rejected"
    assert res.reason == "non-cordial"
    assert (block_id(bad), "non-cordial") in store.violations


def test_insert_idempotent():
    store, _ = fresh_store()
    blk = store.create_block(0, b"x", set())
    res = store.insert(blk)
    assert res.status == "accepted"
    assert res.newly_accepted == ()
    assert len(store) == 1


def test_bad_signature_rejected():
    store, _ = fresh_store()
    unsigned = make_block(0, b"x", [])
    assert store.insert(unsigned).status == "rejected"


def test_duplicate_pointer_creator_rejected():
    store, keyring = fresh_store()
    made = grow_full(store, 2)
    dup = keyring.sign(make_block(2, b"dup", [made[(0, 1)], made[(0, 2)],
                                             made[(1, 2)], made[(2, 2)]]))
    res = store.insert(dup)
    assert res.status == "rejected"
    assert res.reason == "duplicate-pointer-creator"


def test_cascade_order_independent():
    base, keyring = fresh_store()
    grow_full(base, 3)
    blocks = [base.get(b) for b in base.accepted_ids()]
    rng = random.Random(3)
    want = set(base.accepted_ids())
    for _ in range(12):
        perm = blocks[:]
        rng.shuffle(perm)
        store = BlockStore(4, 1, keyring)
        for blk in perm:
            store.insert(blk)
        assert set(store.accepted_ids()) == want
        assert not store.buffer


# -- relations, cross-checked with brute force ------------------------------

def test_acknowledges_one_edge_and_irreflexive(full_lattice):
    store, made = full_lattice
    assert store.acknowledges(made[(0, 2)], made[(0, 1)])
    assert not store.acknowledges(made[(0, 1)], made[(0, 1)])


def test_every_round3_acknowledges_every_round1(full_lattice):
    store, made = full_lattice
    pointers, _ = graph_of(store)
    for a in range(4):
        for b in range(4):
            assert store.acknowledges(made[(a, 3)], made[(b, 1)])
            assert bf_acknowledges(pointers, made[(a, 3)], made[(b, 1)])


def test_acknowledges_matches_bruteforce_everywhere(full_lattice):
    store, _ = full_lattice
    pointers, _ = graph_of(store)
    ids = store.accepted_ids()
    for a, b in itertools.product(ids, repeat=2):
        assert store.acknowledges(a, b) == bf_acknowledges(pointers, a, b)


def test_depth_base_and_recursion(full_lattice):
    store, made = full_lattice
    pointers, _ = graph_of(store)
    for (p, d), bid in made.items():
        assert store.depth_of(bid) == d == bf_depth(pointers, bid)


def test_depth_skip_pointer():
    store, keyring = fresh_store()
    made = grow_full(store, 3)
    skip = forge(store, keyring, 0, b"skip",
                 [made[(0, 3)], made[(1, 3)], made[(2, 3)], made[(3, 1)]])
    pointers, _ = graph_of(store)
    assert store.depth_of(skip) == 4 == bf_depth(pointers, skip)


def test_closure_cases(full_lattice):
    store, made = full_lattice
    assert store.closure([]) == set()
    solo = made[(1, 1)]
    assert store.closure([solo]) == {solo}
    got = store.closure([made[(2, 3)]])
    assert len(got) == 9  # itself plus all 8 blocks of rounds 1-2
    pointers, _ = graph_of(store)
    assert got == bf_closure(pointers, [made[(2, 3)]])


def test_closure_is_closed(full_lattice):
    store, made = full_lattice
    got = store.closure([made[(3, 4)]])
    for bid in got:
        assert store.closure([bid]) <= got


def test_tips(full_lattice):
    store, made = full_lattice
    two_rounds = store.blocks_prefix(2)
    assert store.tips(two_rounds) == {made[(p, 2)] for p in range(4)}
    chain = [made[(0, 1)], made[(0, 2)], made[(0, 3)]]
    assert store.tips(chain) == {made[(0, 3)]}
    assert store.tips([made[(1, 1)]]) == {made[(1, 1)]}


def test_blocks_prefix(full_lattice):
    store, made = full_lattice
    assert store.blocks_prefix(0) == set()
    assert store.blocks_prefix(2) == {made[(p, d)] for p in range(4) for d in (1, 2)}
    assert store.blocks_prefix(99) == set(store.accepted_ids())


def test_unknown_block_raises(full_lattice):
    store, _ = full_lattice
    with pytest.raises(KeyError):
        store.depth_of(b"\x00" * 32)
    with pytest.raises(KeyError):
        store.acknowledges(b"\x00" * 32, store.accepted_ids()[0])


# -- equivocation and approval ----------------------------------------------

def test_chain_is_not_equivocation(full_lattice):
    store, made = full_lattice
    assert not store.is_equivocation(made[(0, 1)], made[(0, 3)])


def test_fork_fixture_is_equivocation(fork_fixture):
    store = fork_fixture["store"]
    assert store.is_equivocation(fork_fixture["e1"], fork_fixture["e2"])
    assert store.is_faulty(3)
    pointers, creators = graph_of(store)
    assert bf_equivocation(pointers, creators, fork_fixture["e1"], fork_fixture["e2"])


def test_different_creators_not_equivocation(full_lattice):
    store, made = full_lattice
    assert not store.is_equivocation(made[(0, 2)], made[(1, 2)])


def test_single_half_no_equivocator():
    store, keyring = fresh_store()
    made = grow_full(store, 1)
    forge(store, keyring, 3, b"fork-a", [made[(p, 1)] for p in range(4)])
    assert not store.is_faulty(3)


def test_approves_direct(full_lattice):
    store, made = full_lattice
    assert store.approves(made[(0, 1)], made[(1, 2)])


def test_approval_around_fork(fork_fixture):
    store = fork_fixture["store"]
    e1, e2 = fork_fixture["e1"], fork_fixture["e2"]
    both = fork_fixture["sees_both"]
    assert not store.approves(e1, both)
    assert not store.approves(e2, both)
    assert store.approves(e1, fork_fixture["sees_e1"])
    assert store.approves(e2, fork_fixture["sees_e2"])
    pointers, creators = graph_of(store)
    assert not bf_approves(pointers, creators, e1, both)
    assert bf_approves(pointers, creators, e2, fork_fixture["sees_e2"])


def test_approval_is_store_independent(fork_fixture):
    """approves depends only on the closure of its second argument, so any
    superset store agrees with the brute-force answer on a smaller one."""
    store = fork_fixture["store"]
    keyring = fork_fixture["keyring"]
    smaller = BlockStore(4, 1, keyring)
    targets = list(store.closure([fork_fixture["sees_e1"]]))
    for bid in store.accepted_ids():
        if bid in set(targets) or store.depth_of(bid) <= 2:
            smaller.insert(store.get(bid))
    anchor = fork_fixture["sees_e1"]
    for bid in smaller.closure([anchor]):
        assert smaller.approves(bid, anchor) == store.approves(bid, anchor)


def test_ratifies_full_lattice(full_lattice):
    store, made = full_lattice
    leader2 = made[(1, 2)]  # leader(2) = (2//2) % 4 = 1
    pointers, creators = graph_of(store)
    for p in range(4):
        assert store.ratifies(leader2, made[(p, 4)], alpha=1)
        assert bf_ratifies(pointers, creators, leader2, made[(p, 4)], 1, 3)


def test_ratifies_needs_quorum():
    store, keyring = fresh_store()
    made = grow_full(store, 2)
    leader2 = made[(1, 2)]
    # Two round-3 blocks acknowledge the round-2 leader; a third is blind
    # to it, so a round-4 block over all three sees only 2 approvers.
    r3_full0 = forge(store, keyring, 0, b"r3-full0",
                     [made[(p, 2)] for p in range(4)])
    r3_full3 = forge(store, keyring, 3, b"r3-full3",
                     [made[(p, 2)] for p in range(4)])
    blind = forge(store, keyring, 2, b"r3-blind",
                  [made[(0, 2)], made[(2, 2)], made[(3, 2)]])
    four = forge(store, keyring, 1, b"r4", [r3_full0, r3_full3, blind, made[(1, 2)]])
    assert store.ratifies(leader2, four, alpha=1) is False
    assert store.approves(leader2, r3_full0)
    assert not store.approves(leader2, blind)


def test_ratifies_false_outside_closure(full_lattice):
    store, made = full_lattice
    assert not store.ratifies(made[(3, 4)], made[(0, 2)], alpha=1)


# -- cordiality --------------------------------------------------------------

def test_depth_one_always_cordial():
    store, keyring = fresh_store()
    blk = keyring.sign(make_block(2, b"x", []))
    assert store.insert(blk).status == "accepted"


def test_cordial_three_of_four(full_lattice):
    store, made = full_lattice
    keyring = store.keyring
    three = [made[(p, 1)] for p in range(3)]
    ok = keyring.sign(make_block(3, b"three", three + [made[(3, 1)]][:0]))
    # 3 distinct creators at depth 1 meets 2f+1.
    assert store.insert(ok).status == "accepted"
    thin = keyring.sign(make_block(3, b"two", three[:2]))
    res = store.insert(thin)
    assert (res.status, res.reason) == ("rejected", "non-cordial")


def test_cordial_round_walkthrough():
    store, keyring = fresh_store()
    grow_full(store, 2)
    # Miner 0 sits at depth 2 over a full round 2: it may build depth 3.
    assert store.cordial_round(0) == 2
    blk = store.create_block(0, b"r3", store.blocks_prefix(2))
    assert store.depth_of(block_id(blk)) == 3
    # Alone in round 3, miner 0 must wait.
    assert store.cordial_round(0) is None
    for p in (1, 2, 3):
        store.create_block(p, f"r3p{p}".encode(), store.blocks_prefix(2))
    assert store.cordial_round(0) == 3


def test_cordial_round_bootstrap():
    store, _ = fresh_store()
    assert store.cordial_round(2) == 0
    store.create_block(2, b"init", set())
    assert store.cordial_round(2) is None


def test_cordial_round_excludes_equivocators(fork_fixture):
    store = fork_fixture["store"]
    # Round 2 has creators {0,1,2,3} but 3 is a detected equivocator; the
    # remaining three still form a quorum, so round 2 stays cordial for a
    # miner still at depth 2 , but not once we drop another creator.
    sub = BlockStore(4, 1, fork_fixture["keyring"])
    for bid in fork_fixture["round1"]:
        sub.insert(store.get(bid))
    sub.insert(store.get(fork_fixture["e1"]))
    sub.insert(store.get(fork_fixture["e2"]))
    sub.insert(store.get(fork_fixture["r2"][0]))
    # Round 2 creators: {0, 3}, and 3 is an equivocator -> only 1 counts.
    assert sub.cordial_round(1) != 2
    sub.insert(store.get(fork_fixture["r2"][1]))
    sub.insert(store.get(fork_fixture["r2"][2]))
    assert sub.cordial_round(3) == 2


def test_is_faulty(fork_fixture):
    store = fork_fixture["store"]
    assert store.is_faulty(3)
    assert not store.is_faulty(0)


def test_rejected_non_cordial_does_not_mark_faulty():
    store, keyring = fresh_store()
    made = grow_full(store, 1)
    bad = keyring.sign(make_block(2, b"thin", [made[(0, 1)], made[(1, 1)]][:1]))
    assert store.insert(bad).status == "rejected"
    assert not store.is_faulty(2)


# -- block creation -----------------------------------------------------------

def test_create_block_over_full_round(full_lattice):
    store, made = full_lattice
    blk = store.create_block(0, b"r5", store.blocks_prefix(4))
    assert len(blk.pointers) == 4
    assert store.depth_of(block_id(blk)) == 5


def test_create_block_no_duplicate_own_pointer():
    store, _ = fresh_store()
    grow_full(store, 2)
    # Tips of rounds 1-2 are the round-2 blocks; miner 0's round-1 block is
    # inside their closure, so no extra same-miner pointer appears.
    blk = store.create_block(0, b"r3", store.blocks_prefix(2))
    creators = {store.creator_of(p) for p in blk.pointers}
    assert len(creators) == len(blk.pointers)


def test_create_block_refuses_to_equivocate(full_lattice):
    store, made = full_lattice
    with pytest.raises(WouldEquivocate):
        store.create_block(0, b"again", store.blocks_prefix(2))


def test_create_block_picks_one_tip_per_creator(fork_fixture):
    store = fork_fixture["store"]
    prefix = store.blocks_prefix(2)
    # Both fork halves are tips of the prefix; only one may be pointed at.
    assert {fork_fixture["e1"], fork_fixture["e2"]} <= store.tips(prefix)
    blk = store.create_block(3, b"over-fork", prefix)
    creators = [store.creator_of(p) for p in blk.pointers]
    assert len(creators) == len(set(creators))


# -- structural invariants -----------------------------------------------------

def test_acyclicity_and_depth_consistency():
    store, keyring = fresh_store(n=4, f=1)
    rng = random.Random(11)
    grow_random(store, keyring, rng, rounds=6, equivocators={3: 0.4})
    ids = store.accepted_ids()
    for a, b in itertools.combinations(ids, 2):
        fwd = store.acknowledges(a, b)
        back = store.acknowledges(b, a)
        assert not (fwd and back)
        if fwd:
            assert store.depth_of(a) > store.depth_of(b)
        if back:
            assert store.depth_of(b) > store.depth_of(a)


def test_closedness_after_random_insertions():
    base, keyring = fresh_store()
    rng = random.Random(12)
    grow_random(base, keyring, rng, rounds=5)
    blocks = [base.get(b) for b in base.accepted_ids()]
    rng.shuffle(blocks)
    store = BlockStore(4, 1, keyring)
    for blk in blocks:
        store.insert(blk)
    for bid in store.accepted_ids():
        for ptr in store.get(bid).pointers:
            assert ptr in store


def test_no_honest_miner_approves_both_halves():
    """A miner approving both blocks of an equivocation is an equivocator."""
    for seed in range(25):
        store, keyring = fresh_store(n=4, f=1, seed=seed)
        rng = random.Random(seed)
        grow_random(store, keyring, rng, rounds=6, equivocators={2: 0.5})
        pairs = [(a, b) for a in store.blocks_by(2) for b in store.blocks_by(2)
                 if a < b and store.is_equivocation(a, b)]
        for a, b in pairs:
            for q in range(4):
                if store.is_faulty(q):
                    continue
                appr_a = any(store.approves(a, x) for x in store.blocks_by(q))
                appr_b = any(store.approves(b, x) for x in store.blocks_by(q))
                assert not (appr_a and appr_b)


def test_no_supermajority_for_both_halves():
    """Lemma check at unit scale; the acceptance suite runs 10^3 cases."""
    for n, f in ((4, 1), (7, 2)):
        for seed in range(15):
            store, keyring = fresh_store(n=n, f=f, seed=seed)
            rng = random.Random(1000 + seed)
            eq = {n - 1: 0.6}
            if f >= 2:
                eq[n - 2] = 0.4
            grow_random(store, keyring, rng, rounds=6, equivocators=eq)
            pointers, creators = graph_of(store)
            for q in eq:
                halves = store.blocks_by(q)
                for a, b in itertools.combinations(halves, 2):
                    if not store.is_equivocation(a, b):
                        continue
                    ca = bf_approval_creators(pointers, creators, a)
                    cb = bf_approval_creators(pointers, creators, b)
                    assert not (len(ca) >= store.quorum and len(cb) >= store.quorum)
