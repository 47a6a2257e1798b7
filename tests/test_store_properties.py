"""Property tests: a store fed a random blocklace in a random order (so the
buffer and cascade run) agrees with the brute-force oracles on admission,
equivocation, approval, ratification, tips, block creation and the proceed
rule."""

from __future__ import annotations

import itertools
import random

from hypothesis import event, given, settings
from hypothesis import strategies as st

from blocklace.blocks import block_id, make_block
from blocklace.store import BlockStore, StoreError, WouldEquivocate
from conftest import fresh_store, grow_random
from helpers_oracle import (
    bf_admission,
    bf_approves,
    bf_closure,
    bf_cordial_round,
    bf_create_pointers,
    bf_creators_at,
    bf_depths,
    bf_equivocation,
    bf_ratifies,
    bf_tips,
    graph_of,
)


def draw_skippers(draw, n: int, f: int) -> dict[int, float]:
    """Up to f miners that sit out rounds, so their chains skip depths."""
    skippers = draw(st.lists(st.integers(0, n - 1), max_size=f, unique=True))
    return {p: draw(st.sampled_from([0.3, 0.6])) for p in skippers}


@st.composite
def shuffled_blocklaces(draw):
    """A store holding a random blocklace with up to f equivocators and up
    to f miners whose chains skip depths, every block inserted in a drawn
    order."""
    n, f = draw(st.sampled_from([(4, 1), (7, 2)]))
    seed = draw(st.integers(0, 2 ** 16))
    rounds = draw(st.integers(1, 5))
    forkers = draw(st.lists(st.integers(0, n - 1), max_size=f, unique=True))
    rates = {p: draw(st.sampled_from([0.3, 0.6, 1.0])) for p in forkers}
    skippers = draw_skippers(draw, n, f)
    src, keyring = fresh_store(n, f, seed)
    grow_random(src, keyring, random.Random(seed), rounds, rates, skippers=skippers)
    blocks = [src.get(b) for b in src.accepted_ids()]
    order = draw(st.permutations(range(len(blocks))))
    store, _ = fresh_store(n, f, seed)
    for i in order:
        assert store.insert(blocks[i]).status in ("accepted", "buffered")
    assert not store.buffer and len(store) == len(src)
    return store, keyring


@settings(max_examples=40, deadline=None)
@given(shuffled_blocklaces())
def test_is_faulty_iff_equivocation_pair(case):
    store, _ = case
    pointers, creators = graph_of(store)
    for c in range(store.n):
        own = [b for b in pointers if creators[b] == c]
        forked = any(bf_equivocation(pointers, creators, a, b)
                     for a, b in itertools.combinations(own, 2))
        assert store.is_faulty(c) == forked


@settings(max_examples=25, deadline=None)
@given(shuffled_blocklaces())
def test_approves_matches_oracle_on_equivocator_blocks(case):
    store, _ = case
    pointers, creators = graph_of(store)
    for b1 in pointers:
        if not store.is_faulty(creators[b1]):
            continue
        for b in pointers:
            assert store.approves(b1, b) == bf_approves(pointers, creators, b1, b)


@settings(max_examples=200, deadline=None)
@given(shuffled_blocklaces())
def test_ratifies_matches_oracle_on_equivocator_blocks(case):
    """ratifies finds b1's equivocation partners once per call; every block
    it examines must still be judged as approves would judge it."""
    store, _ = case
    pointers, creators = graph_of(store)
    for b1 in pointers:
        if not store.is_faulty(creators[b1]):
            continue
        for b2, alpha in itertools.product(pointers, (1, 2)):
            assert store.ratifies(b1, b2, alpha) == bf_ratifies(
                pointers, creators, b1, b2, alpha, store.quorum)


@settings(max_examples=40, deadline=None)
@given(shuffled_blocklaces(), st.data())
def test_tips_and_create_block_match_oracle(case, data):
    store, keyring = case
    for p in range(store.n):
        pointers, creators = graph_of(store)
        for r in range(store.max_depth() + 2):
            assert store.tips(r) == bf_tips(pointers, creators, r)
        r = data.draw(st.integers(0, store.max_depth() + 1))
        expected = bf_create_pointers(pointers, creators, p, r)
        payload = f"new{p}".encode()
        if expected is None:
            try:
                store.create_block(p, payload, r)
            except WouldEquivocate:
                continue
            raise AssertionError(f"miner {p} over round {r} did not refuse")
        want = block_id(keyring.sign(make_block(p, payload, expected)))
        try:
            assert block_id(store.create_block(p, payload, r)) == want
        except WouldEquivocate:
            raise AssertionError(f"miner {p} over round {r} refused") from None
        except StoreError:
            # Not cordial: the very block the oracle predicts was rejected.
            assert want in [bid for bid, _ in store.violations]


@st.composite
def admission_cases(draw):
    """A random blocklace with up to f equivocators and up to f miners whose
    chains skip depths, signed blocks crafted over random pointer subsets of
    it (thin, duplicate-creator and cordial ones), and an insertion order
    over both."""
    n, f = draw(st.sampled_from([(4, 1), (7, 2)]))
    seed = draw(st.integers(0, 2 ** 16))
    rounds = draw(st.integers(1, 4))
    forkers = draw(st.lists(st.integers(0, n - 1), max_size=f, unique=True))
    skippers = draw_skippers(draw, n, f)
    src, keyring = fresh_store(n, f, seed)
    grow_random(src, keyring, random.Random(seed), rounds, dict.fromkeys(forkers, 0.5),
                skippers=skippers)
    pointers, creators = graph_of(src)
    depth = bf_depths(pointers)
    ids = sorted(pointers)
    crafted = []
    for k in range(draw(st.integers(1, 6))):
        # Pointees at one round d (none when d is 0), plus up to two from
        # lower rounds, which may repeat a creator.
        d = draw(st.integers(0, rounds))
        row = [b for b in ids if depth[b] == d]
        pts = draw(st.lists(st.sampled_from(row), max_size=n, unique=True)) if row else []
        below = [b for b in ids if depth[b] < d]
        if below:
            pts += draw(st.lists(st.sampled_from(below), max_size=2, unique=True))
        creator = draw(st.integers(0, n - 1))
        crafted.append(keyring.sign(make_block(creator, f"x{k}".encode(), pts)))
    # The grown blocks arrive in acceptance order or shuffled, and each
    # crafted block at a drawn place among them.
    order = [src.get(b) for b in src.accepted_ids()]
    if draw(st.booleans()):
        order = draw(st.permutations(order))
    for blk in crafted:
        order.insert(draw(st.integers(0, len(order))), blk)
    return src, pointers, creators, crafted, order


@settings(max_examples=80, deadline=None)
@given(admission_cases())
def test_admission_matches_oracle(case):
    src, pointers, creators, crafted, order = case
    verdict = {block_id(b): bf_admission(pointers, creators, b.pointers, src.quorum)
               for b in crafted}
    store = BlockStore(src.n, src.f, src.keyring)
    inserted: set[bytes] = set()
    for blk in order:
        bid = block_id(blk)
        ready = all(bf_closure(pointers, [p]) <= inserted for p in blk.pointers)
        res = store.insert(blk)
        inserted.add(bid)
        if bid in verdict:
            event(f"{verdict[bid] or 'admitted'}, {'on insert' if ready else 'by the cascade'}")
        if not ready:
            assert res.status == "buffered"
        elif bid not in verdict or verdict[bid] is None:
            assert (res.status, res.reason) == ("accepted", None)
            assert res.newly_accepted[0] == bid
        else:
            assert (res.status, res.reason) == ("rejected", verdict[bid])
    want = sorted((bid, why) for bid, why in verdict.items() if why)
    assert sorted(store.violations) == want
    assert not store.buffer
    admitted = [bid for bid, why in verdict.items() if why is None]
    assert set(store.accepted_ids()) == set(pointers) | set(admitted)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_quorum_round_and_cordial_round_match_the_scan(data):
    """A random blocklace with up to f equivocators and up to f skippers,
    replayed block by block in acceptance order, so every round is seen
    part-built and complete: after each insert the rounds with a quorum of
    creators are exactly 1..quorum_round, and cordial_round agrees with the
    old scan for every miner. creators_at matches the creators read block by
    block at every round, and returns a copy of the store's record. The
    accepted blocks' depths, worked out from their pointers, are exactly
    1..max_depth."""
    n, f = data.draw(st.sampled_from([(4, 1), (7, 2)]))
    seed = data.draw(st.integers(0, 2 ** 16))
    forkers = data.draw(st.lists(st.integers(0, n - 1), max_size=f, unique=True))
    rates = {p: data.draw(st.sampled_from([0.3, 0.6, 1.0])) for p in forkers}
    skippers = draw_skippers(data.draw, n, f)
    src, keyring = fresh_store(n, f, seed)
    grow_random(src, keyring, random.Random(seed), data.draw(st.integers(1, 6)), rates,
                skippers=skippers)
    store = BlockStore(n, f, keyring)
    depth: dict[bytes, int] = {}  # from the pointers, parents first
    for bid in src.accepted_ids():
        store.insert(src.get(bid))
        depth[bid] = 1 + max((depth[p] for p in src.get(bid).pointers), default=0)
        assert set(depth.values()) == set(range(1, store.max_depth() + 1))
        for d in range(store.max_depth() + 2):
            want = bf_creators_at(store, d)
            got = store.creators_at(d)
            assert got == want
            got.add(n)
            assert store.creators_at(d) == want
        quorate = [d for d in range(1, store.max_depth() + 1)
                   if len(bf_creators_at(store, d)) >= store.quorum]
        assert quorate == list(range(1, store.quorum_round + 1))
        for p in range(n):
            got = store.cordial_round(p)
            assert got == bf_cordial_round(store, p)
            event("waits" if got is None else "proceeds")
