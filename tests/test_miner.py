"""The per-miner state machine: receiving, proceeding, packaging, and
responsiveness."""

from __future__ import annotations

from blocklace import miner as miner_module
from blocklace.blocks import Keyring, block_id, encode_block, make_block
from blocklace.leaders import LeaderSchedule
from blocklace.miner import MinerState, Package, ProtocolConfig
from blocklace.ordering import ES_PARAMS

from conftest import fresh_store, grow_full
from helpers_oracle import creator_ack_mask

SCHED = LeaderSchedule(4, 2)
CAP = 1000  # a depth cap no test reaches


def make_miner(mid: int, delta: int = 0, seed: int = 0) -> MinerState:
    config = ProtocolConfig(4, 1, ES_PARAMS, delta)
    return MinerState(mid, config, SCHED, [], Keyring(seed, 4))


def proceed(miner: MinerState, now: int, payload: bytes):
    """miner.step over the round can_proceed allows; it must allow one."""
    r = miner.can_proceed(now, CAP)
    assert r is not None
    return miner.step(now, payload, r)


def lattice_blocks(rounds: int, seed: int = 0):
    store, keyring = fresh_store(seed=seed)
    made = grow_full(store, rounds)
    return store, made


def accepts(miner: MinerState, since: int = 0) -> list[bytes]:
    """The ids of the accept lines miner wrote from events[since] on."""
    return [bytes.fromhex(e["id"]) for e in miner.events[since:] if e["e"] == "accept"]


def test_receive_dangling_block_buffers_without_delivery():
    store, made = lattice_blocks(2)
    miner = make_miner(0)
    blk = store.get(made[(1, 2)])
    miner.on_receive(Package((blk,)), 0)
    assert accepts(miner) == []
    assert block_id(blk) in miner.store.buffer
    assert miner.log.delivered == []


def test_receive_duplicate_package_is_idempotent():
    store, made = lattice_blocks(2)
    miner = make_miner(0)
    pkg = Package(tuple(store.get(b) for b in store.accepted_ids()))
    miner.on_receive(pkg, 0)
    assert len(accepts(miner)) == 8
    mark = len(miner.events)
    miner.on_receive(pkg, 0)
    assert accepts(miner, mark) == []
    assert len(miner.store) == 8


def test_full_lattice_package_triggers_first_decision():
    store, made = lattice_blocks(4)
    miner = make_miner(0)
    pkg = Package(tuple(store.get(b) for b in store.accepted_ids()))
    miner.on_receive(pkg, 0)
    assert len(miner.log.delivered) == 5  # round-1 blocks plus the leader
    decides = [e for e in miner.events if e["e"] == "decide"]
    assert decides and decides[-1]["round"] == 2
    assert decides[-1]["trigger"] == 4


def test_rejected_block_resent_leaves_no_log_behind():
    """A peer re-sending one badly signed block costs a correct miner one
    reject event per arrival and no memory: the store's rejection log is
    emptied into the transcript."""
    miner = make_miner(0)
    forged = Keyring(1, 4).sign(make_block(1, b"forged", []))
    for t in range(3):
        miner.on_receive(Package((forged,)), t)
        assert miner.events[t:] == [{"e": "reject", "t": t, "m": 0,
                                     "id": block_id(forged).hex(), "reason": "bad-signature"}]
        assert miner.store.violations == []


def test_received_lines_land_in_order_in_the_given_list():
    """The lines on_receive writes go, complete, to the end of the list the
    miner was built with, as they happen: an accept per newly accepted
    block, in acceptance order, and the decide right after the accept of
    the block that triggered it. Each holds the tick on_receive was given
    and the miner's id."""
    store, _ = lattice_blocks(4)
    events = [{"e": "earlier"}]
    miner = MinerState(1, ProtocolConfig(4, 1, ES_PARAMS), SCHED, events, Keyring(0, 4))
    miner.on_receive(Package(tuple(store.get(b) for b in store.accepted_ids())), 7)
    assert miner.events is events and events[0] == {"e": "earlier"}
    lines = events[1:]
    assert all(e["t"] == 7 and e["m"] == 1 for e in lines)
    assert accepts(miner) == miner.store.accepted_ids()
    assert len(miner.store) == 16
    k = [e["e"] for e in lines].index("decide")
    assert [e["e"] for e in lines] == ["accept"] * k + ["decide"] + ["accept"] * (16 - k)
    trigger = bytes.fromhex(lines[k - 1]["id"])
    assert lines[k]["trigger"] == miner.store.depth_of(trigger) == 4


def test_step_writes_create_then_accept():
    """An own block's create line, from which a verifier decodes it, comes
    just before its accept line, both at the tick step was given."""
    miner = make_miner(2)
    blk, _ = miner.step(3, b"p", 0)
    create, accept = miner.events
    assert create == {"e": "create", "t": 3, "m": 2, "id": blk._hex, "c": 2, "d": 1,
                      "enc": encode_block(blk).hex(), "sig": blk.signature.hex()}
    assert accept == {"e": "accept", "t": 3, "m": 2, "id": blk._hex}


def test_can_proceed_async_returns_cordial_round():
    from blocklace.ordering import ASYNC_PARAMS
    config = ProtocolConfig(4, 1, ASYNC_PARAMS, 0)
    miner = MinerState(0, config, LeaderSchedule(4, 5), [], Keyring(0, 4))
    assert miner.can_proceed(0, CAP) == 0
    miner.step(0, b"p", 0)
    assert miner.can_proceed(0, CAP) is None  # waiting on a quorum of round 1


def test_can_proceed_es_timer_gate():
    store, made = lattice_blocks(1)
    miner = make_miner(0, delta=5)
    miner.step(0, b"init", 0)  # last_send := 0
    miner.on_receive(Package(tuple(store.get(made[(p, 1)]) for p in (1, 2, 3))), 0)
    # Miner 0 is not leader(2) = miner 1, so the timer gates creation.
    assert miner.can_proceed(2, CAP) is None
    assert miner.can_proceed(5, CAP) == 1


def test_can_proceed_es_leader_fast_path():
    store, made = lattice_blocks(1)
    miner = make_miner(1, delta=50)
    miner.step(0, b"init", 0)
    miner.on_receive(Package(tuple(store.get(made[(p, 1)]) for p in (0, 2, 3))), 0)
    # Miner 1 leads depth 2, the depth it is about to populate: no timeout.
    assert miner.can_proceed(1, CAP) == 1


def test_step_sends_bare_block_when_nothing_missing():
    miners = [make_miner(i) for i in range(4)]
    # Round 1 everywhere.
    blocks = []
    for m in miners:
        blk, _ = m.step(0, f"init{m.id}".encode(), 0)
        blocks.append(blk)
    for m in miners:
        m.on_receive(Package(tuple(b for b in blocks if b.creator != m.id)), 0)
    # Every peer has responded since the round-1 send: responsive, nothing
    # missing, so each round-2 package is just the new block.
    for q in (1, 2, 3):
        assert miners[0].responsive(q)
    blk, sends = proceed(miners[0], 1, b"round2")
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
        blk = store.create_block(p, f"r3-{p}".encode(), 2)
        r3[p] = block_id(blk)
    miner = make_miner(0)
    miner.on_receive(Package(tuple(store.get(b) for b in store.accepted_ids())), 0)
    # Peer 2's own round-2 block evidences round 1; rounds 2 and 3 do not.
    blk, sends = proceed(miner, 0, b"r4")
    assert miner.store.depth_of(block_id(blk)) == 4
    ids = [block_id(b) for b in dict(sends)[2].blocks]
    missing_r2 = {made[(p, 2)] for p in (0, 1, 3)}
    assert set(ids) == missing_r2 | {block_id(blk)}
    depths = [miner.store.depth_of(i) for i in ids]
    assert depths == sorted(depths)


def test_step_skips_detected_equivocator(fork_fixture):
    src = fork_fixture["store"]
    miner = make_miner(0)
    miner.on_receive(Package(tuple(src.get(b) for b in src.accepted_ids())), 0)
    assert miner.store.is_faulty(3)
    blk, sends = proceed(miner, 0, b"new")
    assert sorted(q for q, _ in sends) == [1, 2]


def _over_fork_round2(fork):
    """Miner 0 holding round 1, both twins and the round-2 blocks; its next
    block is over round 2 and points at the twin e2."""
    src = fork["store"]
    miner = make_miner(0)
    held = [*fork["round1"], fork["e1"], fork["e2"], *fork["r2"].values()]
    miner.on_receive(Package(tuple(src.get(b) for b in held)), 0)
    assert miner.store.is_faulty(3)
    return miner


def test_step_backlog_keeps_equivocators_pointee(fork_fixture):
    """A pointee one round below is left out of the backlog as in flight
    from its creator, but a twin went to half of the peers only: it stays,
    and a responsive peer with no evidence of it gets it."""
    miner = _over_fork_round2(fork_fixture)
    e2 = fork_fixture["e2"]
    assert miner.responsive(1)
    assert not miner.store.acknowledged_by(1, e2)
    blk, sends = proceed(miner, 0, b"r3")
    assert e2 in blk.pointers
    ids = [block_id(b) for b in dict(sends)[1].blocks]
    assert e2 in ids
    assert not set(fork_fixture["r2"].values()) & set(ids)


def test_step_bare_package_carries_equivocators_pointees(fork_fixture):
    """A nonresponsive peer gets the new block and, parents-first, its
    pointees by the known equivocator, miner 3."""
    miner = _over_fork_round2(fork_fixture)
    miner._last_sent[1] = fork_fixture["r2"][0]
    miner._heard_since_send[1] = False
    assert not miner.responsive(1)
    blk, sends = proceed(miner, 0, b"r3")
    by3 = [p for p in blk.pointers if miner.store.creator_of(p) == 3]
    assert by3 == [fork_fixture["e2"]]
    assert [block_id(b) for b in dict(sends)[1].blocks] == [*by3, block_id(blk)]


def test_responsive_before_any_send():
    miner = make_miner(0)
    assert miner.responsive(1)


def test_responsive_two_miner_exchange():
    a, b = make_miner(0), make_miner(1)
    blk_a, sends = a.step(0, b"a1", 0)
    assert not a.responsive(1)  # sent, nothing heard back yet
    b.on_receive(dict(sends)[1], 0)
    blk_b, sends_b = b.step(0, b"b1", 0)
    a.on_receive(dict(sends_b)[0], 0)
    # b's block does not yet acknowledge a's (same depth), but b responded.
    assert a.responsive(1)


def test_responsive_by_acknowledgement():
    store, keyring = fresh_store()
    made = grow_full(store, 2)
    miner = make_miner(0)
    own_r1 = store.get(made[(0, 1)])
    miner.store.insert(own_r1)
    miner._last_sent[1] = made[(0, 1)]
    assert not miner.responsive(1)
    for p in (1, 2, 3):
        miner.store.insert(store.get(made[(p, 1)]))
    # Peer 1's round-2 block acknowledges miner 0's round-1 block.
    miner.store.insert(store.get(made[(1, 2)]))
    assert miner.responsive(1)


def test_duplicate_block_leaves_its_creator_nonresponsive():
    """A copy of a q-block already held shows nothing new: peers relay a
    crashed q's blocks, so such copies keep arriving after q is gone."""
    store, made = lattice_blocks(1)
    miner = make_miner(0)
    miner.on_receive(Package(tuple(store.get(b) for b in store.accepted_ids())), 0)
    proceed(miner, 0, b"r2")
    assert not miner.responsive(1)
    miner.on_receive(Package((store.get(made[(1, 1)]),)), 1)
    assert accepts(miner)[-1] != made[(1, 1)]
    assert not miner.responsive(1)


def test_buffered_block_marks_its_creator_once_accepted():
    """A q-block waiting in the buffer for a pointee does not count; the
    cascade that accepts it does."""
    store, made = lattice_blocks(2)
    miner = make_miner(0)
    held = [made[(p, 1)] for p in (0, 1, 3)]
    miner.on_receive(Package(tuple(store.get(b) for b in held)), 0)
    proceed(miner, 0, b"r2")
    miner.on_receive(Package((store.get(made[(1, 2)]),)), 1)
    assert made[(1, 2)] in miner.store.buffer
    assert not miner.responsive(1)
    miner.on_receive(Package((store.get(made[(2, 1)]),)), 2)
    assert accepts(miner)[-2:] == [made[(2, 1)], made[(1, 2)]]
    assert not miner.store.acknowledged_by(1, miner._last_sent[1])
    assert miner.responsive(1)


def test_own_block_and_twin_never_mark_the_miner_itself(fork_fixture):
    """Equivocator 3 holds its twin e1 and builds on it. Its other twin e2,
    relayed back, releases peer 1's buffered block that points at e2:
    that acceptance marks 1 heard, and no own block marks 3."""
    src = fork_fixture["store"]
    miner = make_miner(3)
    held = [*fork_fixture["round1"], fork_fixture["e1"], *fork_fixture["r2"].values()]
    miner.on_receive(Package(tuple(src.get(b) for b in held)), 0)
    miner.on_receive(Package((src.get(fork_fixture["sees_e2"]),)), 0)
    assert fork_fixture["sees_e2"] in miner.store.buffer
    blk, _ = proceed(miner, 0, b"r3")
    assert fork_fixture["e1"] in blk.pointers
    assert miner._heard_since_send == [False] * 4
    miner.on_receive(Package((src.get(fork_fixture["e2"]),)), 1)
    assert accepts(miner)[-2:] == [fork_fixture["e2"], fork_fixture["sees_e2"]]
    assert miner.store.is_faulty(3)
    assert miner._heard_since_send == [False, True, False, False]



def test_step_builds_each_distinct_package_once(monkeypatch):
    """Miners 0, 2 and 3 build two quorum rounds over each other's blocks;
    peer 1's genesis block, made after them, is a tip of round 1. It sits in
    the backlog and is the one block peer 1 shows evidence of; peers 2 and 3
    show the same evidence, of round 1's other blocks. They get one shared
    package, built once, and peer 1 its own without its block; each is
    blocks_in_mask of the peer's mask."""
    miner = make_miner(0)
    store = miner.store
    for r in range(2):  # rounds 1 and 2; round2 keeps the second
        round2 = [block_id(store.create_block(p, f"p{p}r{r}".encode(), r)) for p in (0, 2, 3)]
    genesis = block_id(store.create_block(1, b"g1", 0))
    built = []
    blocks_in_mask = store.blocks_in_mask
    monkeypatch.setattr(store, "blocks_in_mask",
                        lambda mask: built.append(mask) or blocks_in_mask(mask))
    blk, sends = proceed(miner, 0, b"new")
    pkgs = dict(sends)
    assert sorted(pkgs) == [1, 2, 3]
    assert pkgs[2] is pkgs[3] and pkgs[1] is not pkgs[2]
    assert len(built) == 2
    assert genesis in {block_id(b) for b in pkgs[2].blocks}
    assert genesis not in {block_id(b) for b in pkgs[1].blocks}
    # Everything but the pointees one round below the new block.
    assert blk.pointers == tuple(sorted([genesis, *round2]))
    backlog = store.mask_of(store.accepted_ids()) & ~store.mask_of(round2)
    for q, pkg in pkgs.items():
        mask = backlog & ~creator_ack_mask(store, q)
        assert pkg.blocks == tuple(blocks_in_mask(mask))


def test_delivery_runs_only_past_the_gate(monkeypatch):
    """Fed a 6-round lattice block by block, the miner calls extend_delivery
    only on accepts that leave quorum_round - beta at or past the first
    leader round above the anchor's; below it the call could decide nothing."""
    calls = []
    real = miner_module.extend_delivery
    monkeypatch.setattr(miner_module, "extend_delivery",
                        lambda *args: calls.append(1) or real(*args))
    store, _ = lattice_blocks(6)
    miner = make_miner(0)
    crossed = []
    for bid in store.accepted_ids():
        floor, before = miner.log.current_round, len(calls)
        miner.on_receive(Package((store.get(bid),)), 0)
        crossed.append(miner.store.quorum_round - ES_PARAMS.beta
                       >= floor + ES_PARAMS.leader_stride)
        assert len(calls) - before == crossed[-1]
    assert miner.log.current_round == 4
    assert crossed.index(True) == 14  # the third round-4 block, the quorum's last
    assert sum(crossed) < len(crossed) // 2
