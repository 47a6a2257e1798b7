"""Shared fixtures: a full 4-round lattice, an equivocation fixture, and a
seeded random blocklace grower."""

from __future__ import annotations

import random

import pytest

from blocklace.blocks import Keyring, block_id, make_block
from blocklace.store import BlockStore


def fresh_store(n=4, f=1, seed=0) -> tuple[BlockStore, Keyring]:
    keyring = Keyring(seed, n)
    return BlockStore(n, f, keyring), keyring


def grow_full(store: BlockStore, rounds: int) -> dict[tuple[int, int], bytes]:
    """Every miner points at everything each round: the densest lattice."""
    made = {}
    for d in range(1, rounds + 1):
        for p in range(store.n):
            blk = store.create_block(p, f"p{p}r{d}".encode(), d - 1)
            made[(p, d)] = block_id(blk)
    return made


def forge(store: BlockStore, keyring: Keyring, creator: int, payload: bytes,
          pointers) -> bytes:
    blk = keyring.sign(make_block(creator, payload, pointers))
    res = store.insert(blk)
    assert res.status == "accepted", res
    return block_id(blk)


@pytest.fixture
def full_lattice():
    """n=4 lattice with 4 complete rounds (16 blocks)."""
    store, keyring = fresh_store()
    made = grow_full(store, 4)
    return store, made


@pytest.fixture
def fork_fixture():
    """Miner 3 equivocates at round 2: e1 and e2 share pointers but differ
    in payload; honest miners finish round 2; round-3 blocks split between
    covering e1 only, e2 only, and (via round 3) both halves at depth 4."""
    store, keyring = fresh_store()
    made = grow_full(store, 1)
    round1 = [made[(p, 1)] for p in range(4)]
    e1 = forge(store, keyring, 3, b"fork-a", round1)
    e2 = forge(store, keyring, 3, b"fork-b", round1)
    r2 = {}
    for p in range(3):
        blk = store.create_block(p, f"p{p}r2".encode(), 1)
        r2[p] = block_id(blk)
    sees_e1 = forge(store, keyring, 0, b"sees-e1", [r2[0], r2[1], r2[2], e1])
    sees_e2 = forge(store, keyring, 1, b"sees-e2", [r2[0], r2[1], r2[2], e2])
    third3 = forge(store, keyring, 2, b"plain-r3", [r2[0], r2[1], r2[2]])
    sees_both = forge(store, keyring, 2, b"sees-both", [sees_e1, sees_e2, third3])
    return {
        "store": store,
        "keyring": keyring,
        "round1": round1,
        "e1": e1,
        "e2": e2,
        "r2": r2,
        "sees_e1": sees_e1,
        "sees_e2": sees_e2,
        "third3": third3,
        "sees_both": sees_both,
    }


def grow_random(store: BlockStore, keyring: Keyring, rng: random.Random,
                rounds: int, equivocators: dict[int, float] | None = None,
                on_round=None) -> None:
    """Round-by-round growth with random >=2f+1 parent subsets; designated
    miners fork with the given probability (at most f of them)."""
    equivocators = equivocators or {}
    assert len(equivocators) <= store.f
    n = store.n
    latest: dict[int, list[bytes]] = {p: [] for p in range(n)}
    for d in range(1, rounds + 1):
        prev_rows = {p: list(latest[p]) for p in range(n)}
        new: dict[int, list[bytes]] = {p: [] for p in range(n)}
        for p in range(n):
            def parents_for() -> list[bytes]:
                if d == 1:
                    return []
                others = [q for q in range(n) if q != p and prev_rows[q]]
                take = rng.randint(store.quorum - 1, len(others))
                chosen = rng.sample(others, take)
                pts = [rng.choice(prev_rows[q]) for q in chosen]
                pts.append(prev_rows[p][-1])  # own chain pointer
                return pts

            if p in equivocators and d > 1 and rng.random() < equivocators[p]:
                a = forge(store, keyring, p, f"e{p}.{d}a".encode(), parents_for())
                b = forge(store, keyring, p, f"e{p}.{d}b".encode(), parents_for())
                new[p] = [a, b]
            else:
                bid = forge(store, keyring, p, f"b{p}.{d}".encode(), parents_for())
                new[p] = [bid]
        latest = new
        if on_round is not None:
            on_round(d)
