"""The per-miner state machine: receiving, proceeding, packaging, and
responsiveness."""

from __future__ import annotations

from blocklace.blocks import Keyring, block_id
from blocklace.leaders import LeaderSchedule
from blocklace.miner import MinerState, Package, ProtocolConfig
from blocklace.ordering import ES_PARAMS

from conftest import fresh_store, grow_full

SCHED = LeaderSchedule(4, 2)


def make_miner(mid: int, delta: int = 0, seed: int = 0) -> MinerState:
    config = ProtocolConfig(4, 1, ES_PARAMS, delta)
    return MinerState(mid, config, SCHED, Keyring(seed, 4))


def lattice_blocks(rounds: int, seed: int = 0):
    store, keyring = fresh_store(seed=seed)
    made = grow_full(store, rounds)
    return store, made


def test_receive_dangling_block_buffers_without_delivery():
    store, made = lattice_blocks(2)
    miner = make_miner(0)
    blk = store.get(made[(1, 2)])
    got = miner.on_receive(Package((blk,)))
    assert got == []
    assert block_id(blk) in miner.store.buffer
    assert miner.log.delivered == []


def test_receive_duplicate_package_is_idempotent():
    store, made = lattice_blocks(2)
    miner = make_miner(0)
    pkg = Package(tuple(store.get(b) for b in store.accepted_ids()))
    first = miner.on_receive(pkg)
    assert len(first) == 8
    again = miner.on_receive(pkg)
    assert again == []
    assert len(miner.store) == 8


def test_full_lattice_package_triggers_first_decision():
    store, made = lattice_blocks(4)
    miner = make_miner(0)
    pkg = Package(tuple(store.get(b) for b in store.accepted_ids()))
    miner.on_receive(pkg)
    assert len(miner.log.delivered) == 5  # round-1 blocks plus the leader
    decides = [e for e in miner.drain_outbox() if e["e"] == "decide"]
    assert decides and decides[-1]["round"] == 2
    assert decides[-1]["trigger"] == 4


def test_can_proceed_async_returns_cordial_round():
    from blocklace.ordering import ASYNC_PARAMS
    config = ProtocolConfig(4, 1, ASYNC_PARAMS, 0)
    miner = MinerState(0, config, LeaderSchedule(4, 5), Keyring(0, 4))
    assert miner.can_proceed(now=0) == 0
    miner.step(0, b"p")
    assert miner.can_proceed(now=0) is None  # waiting on a quorum of round 1


def test_can_proceed_es_timer_gate():
    store, made = lattice_blocks(1)
    miner = make_miner(0, delta=5)
    miner.step(0, b"init")  # last_send := 0
    miner.on_receive(Package(tuple(store.get(made[(p, 1)]) for p in (1, 2, 3))))
    # Miner 0 is not leader(2) = miner 1, so the timer gates creation.
    assert miner.can_proceed(now=2) is None
    assert miner.can_proceed(now=5) == 1


def test_can_proceed_es_leader_fast_path():
    store, made = lattice_blocks(1)
    miner = make_miner(1, delta=50)
    miner.step(0, b"init")
    miner.on_receive(Package(tuple(store.get(made[(p, 1)]) for p in (0, 2, 3))))
    # Miner 1 leads depth 2, the depth it is about to populate: no timeout.
    assert miner.can_proceed(now=1) == 1


def test_step_sends_bare_block_when_nothing_missing():
    miners = [make_miner(i) for i in range(4)]
    # Round 1 everywhere.
    blocks = []
    for m in miners:
        blk, _ = m.step(0, f"init{m.id}".encode())
        blocks.append(blk)
    for m in miners:
        m.on_receive(Package(tuple(b for b in blocks if b.creator != m.id)))
    # Every peer has responded since the round-1 send: responsive, nothing
    # missing, so each round-2 package is just the new block.
    for q in (1, 2, 3):
        assert miners[0].responsive(q)
    blk, sends = miners[0].step(1, b"round2")
    assert blk is not None
    assert len(sends) == 3
    for q, pkg in sends:
        assert [block_id(b) for b in pkg.blocks] == [block_id(blk)]


def test_step_ships_backlog_to_responsive_peer():
    """A responsive peer whose newest block proves knowledge only up to
    round 1 gets the three round-2 blocks it missed, parents-first, with
    the new block; round-3 blocks stay in flight from their creators."""
    store, keyring = fresh_store()
    made = grow_full(store, 2)
    r3 = {}
    for p in (0, 1, 3):
        blk = store.create_block(p, f"r3-{p}".encode(), store.blocks_prefix(2))
        r3[p] = block_id(blk)
    miner = make_miner(0)
    miner.on_receive(Package(tuple(store.get(b) for b in store.accepted_ids())))
    # Peer 2's own round-2 block evidences round 1; rounds 2 and 3 do not.
    blk, sends = miner.step(0, b"r4")
    assert miner.store.depth_of(block_id(blk)) == 4
    ids = [block_id(b) for b in dict(sends)[2].blocks]
    missing_r2 = {made[(p, 2)] for p in (0, 1, 3)}
    assert set(ids) == missing_r2 | {block_id(blk)}
    depths = [miner.store.depth_of(i) for i in ids]
    assert depths == sorted(depths)


def test_step_skips_detected_equivocator(fork_fixture):
    src = fork_fixture["store"]
    miner = make_miner(0)
    miner.on_receive(Package(tuple(src.get(b) for b in src.accepted_ids())))
    assert miner.store.is_faulty(3)
    blk, sends = miner.step(0, b"new")
    assert blk is not None
    assert sorted(q for q, _ in sends) == [1, 2]


def test_responsive_before_any_send():
    miner = make_miner(0)
    assert miner.responsive(1)


def test_responsive_two_miner_exchange():
    a, b = make_miner(0), make_miner(1)
    blk_a, sends = a.step(0, b"a1")
    assert not a.responsive(1)  # sent, nothing heard back yet
    b.on_receive(dict(sends)[1])
    blk_b, sends_b = b.step(0, b"b1")
    a.on_receive(dict(sends_b)[0])
    # b's block does not yet acknowledge a's (same depth), but b responded.
    assert a.responsive(1)


def test_responsive_by_acknowledgement():
    store, keyring = fresh_store()
    made = grow_full(store, 2)
    miner = make_miner(0)
    own_r1 = store.get(made[(0, 1)])
    miner.store.insert(own_r1)
    miner._sent_own[1].append(made[(0, 1)])
    assert not miner.responsive(1)
    for p in (1, 2, 3):
        miner.store.insert(store.get(made[(p, 1)]))
    # Peer 1's round-2 block acknowledges miner 0's round-1 block.
    miner.store.insert(store.get(made[(1, 2)]))
    assert miner.responsive(1)

