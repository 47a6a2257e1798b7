"""Property tests: a store fed a random blocklace in a random order (so the
buffer and cascade run) agrees with the brute-force oracles on equivocation,
approval, tips and block creation."""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from blocklace.blocks import block_id, make_block
from blocklace.store import StoreError, WouldEquivocate
from conftest import fresh_store, grow_random
from helpers_oracle import (
    bf_approves,
    bf_create_pointers,
    bf_equivocation,
    bf_tips,
    graph_of,
)


@st.composite
def shuffled_blocklaces(draw):
    """A store holding a random blocklace with up to f equivocators, every
    block inserted in a drawn order."""
    n, f = draw(st.sampled_from([(4, 1), (7, 2)]))
    seed = draw(st.integers(0, 2 ** 16))
    rounds = draw(st.integers(1, 5))
    forkers = draw(st.lists(st.integers(0, n - 1), max_size=f, unique=True))
    rates = {p: draw(st.sampled_from([0.3, 0.6, 1.0])) for p in forkers}
    src, keyring = fresh_store(n, f, seed)
    grow_random(src, keyring, random.Random(seed), rounds, rates)
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
