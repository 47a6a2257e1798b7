"""Simulator behavior: determinism, latency accounting, byzantine behaviors,
adversaries, and scenario validation."""

from __future__ import annotations

import gc
import json

import pytest

from blocklace import checks
from blocklace.blocks import Keyring, decode_block, encode_block, encode_package, make_block
from blocklace.simnet import (
    HEX_ID, MAX_DELAY, ByzSpec, Scenario, ScenarioError, Simulation, load_transcript, run)

from helpers_oracle import acknowledges, blocks_by


def test_scenario_validation_errors():
    with pytest.raises(ScenarioError):
        Scenario(n=4, f=2).validate()
    with pytest.raises(ScenarioError):
        Scenario(model="asynchrony", delta=3).validate()
    with pytest.raises(ScenarioError):
        Scenario(byzantine={0: ByzSpec("silent"), 1: ByzSpec("silent")}).validate()
    with pytest.raises(ScenarioError):
        Scenario(byzantine={9: ByzSpec("silent")}).validate()
    with pytest.raises(ScenarioError):
        Scenario(adversary={"kind": "martian"}).validate()
    Scenario().validate()


@pytest.mark.parametrize("spec", [
    {"behavior": "equivocate", "rate": "nan"},
    {"behavior": "equivocate", "rate": 1.5},
    {"behavior": "equivocate", "rate": -0.1},
    {"behavior": "equivocate", "rate": False},
    {"behavior": "crash", "round": -1},
])
def test_from_dict_rejects_meaningless_byzantine_spec(spec):
    with pytest.raises(ScenarioError, match=r"byzantine\[0\]"):
        Scenario.from_dict({"n": 4, "byzantine": {"0": spec}})
    edge = {**spec, "rate": 1.0} if "rate" in spec else {**spec, "round": 0}
    assert Scenario.from_dict({"n": 4, "byzantine": {"0": edge}}).byzantine[0] == ByzSpec(**edge)


def _short_run_lines() -> list[dict]:
    return [json.loads(ln) for ln in run(Scenario(rounds=4, seed=0)).lines()]


def _creator_out_of_range() -> str:
    """A short run's transcript whose first create line holds a block by
    creator n, signed under that creator's key and named by its own id; the
    line's c stays in range."""
    rows = _short_run_lines()
    row = next(r for r in rows if r.get("e") == "create")
    old = decode_block(bytes.fromhex(row["enc"]))
    blk = Keyring(0, 5).sign(make_block(4, old.payload, old.pointers))
    row.update(id=blk._hex, enc=encode_block(blk).hex(), sig=blk.signature.hex())
    return "".join(json.dumps(r) + "\n" for r in rows)


def _not_json_line() -> str:
    return json.dumps(_short_run_lines()[0]) + "\noops\n"


def _short_run_with(line: int, **values) -> str:
    """A short run's transcript with the given values set on one line."""
    rows = _short_run_lines()
    rows[line - 1].update(values)
    return "".join(json.dumps(r) + "\n" for r in rows)


def split_ids(ids: str) -> list[str]:
    """The hex ids an event's ids string joins, in package order."""
    return [ids[k:k + HEX_ID] for k in range(0, len(ids), HEX_ID)]


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: Scenario(model="asynchrony", gst=5).validate(), ScenarioError,
                 "gst applies to eventual synchrony only", id="gst-under-asynchrony"),
    pytest.param(lambda: Scenario(byzantine={0: ByzSpec("martian")}).validate(), ScenarioError,
                 "unknown behavior 'martian'", id="unknown-behavior"),
    pytest.param(lambda: Scenario(delays=[1]).validate(), ScenarioError,
                 "delays must be an object", id="delays-not-an-object"),
    pytest.param(lambda: Scenario(adversary="none").validate(), ScenarioError,
                 "adversary must be an object", id="adversary-not-an-object"),
    pytest.param(lambda: Scenario(delays={"kind": "gauss"}).validate(), ScenarioError,
                 "unknown delay kind 'gauss'", id="unknown-delay-kind"),
    pytest.param(lambda: Scenario(rounds=0).validate(), ScenarioError,
                 "rounds must be positive", id="rounds-0"),
    pytest.param(lambda: Scenario(batch=-1).validate(), ScenarioError,
                 "negative batch or payload size", id="negative-batch"),
    pytest.param(lambda: Scenario(payload_size=-1).validate(), ScenarioError,
                 "negative batch or payload size", id="negative-payload-size"),
    pytest.param(lambda: Scenario.from_dict([4]), ScenarioError,
                 "scenario must be an object", id="scenario-not-an-object"),
    pytest.param(lambda: Scenario.from_dict({"byzantine": [0]}), ScenarioError,
                 "byzantine must be an object", id="byzantine-not-an-object"),
    pytest.param(lambda: Scenario.from_dict({"byzantine": {"0": {"rate": 1.0}}}),
                 ScenarioError, "byzantine[0] needs a behavior", id="byzantine-no-behavior"),
    pytest.param(lambda: load_transcript(_not_json_line()), ValueError,
                 "line 2: Expecting value: line 1 column 1 (char 0)", id="line-not-json"),
    pytest.param(lambda: load_transcript('{"schema": "blocklace-metrics/1"}\n'), ValueError,
                 "not a transcript file", id="not-a-transcript-header"),
    pytest.param(lambda: load_transcript(_creator_out_of_range()), ValueError,
                 "line 2: create event with a signature its creator's key did not make",
                 id="create-creator-out-of-range"),
    # Each equals the simulator's own value, 1 or 0, as an int.
    pytest.param(lambda: load_transcript(_short_run_with(2, d=True)), ValueError,
                 "line 2: create event with a missing or malformed 'd'", id="create-d-bool"),
    pytest.param(lambda: load_transcript(_short_run_with(4, t=False)), ValueError,
                 "line 4: send event with a missing or malformed 't'", id="send-t-bool"),
])
def test_simnet_refuses_with_its_reason(call, error, message):
    """Each refusal the simulator's scenario and transcript readers make,
    with the message it gives."""
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_replay_is_byte_identical():
    sc = Scenario(rounds=10, seed=3, delays={"kind": "uniform", "min": 1, "max": 3},
                  byzantine={2: ByzSpec("equivocate", rate=0.5)})
    a = run(sc).jsonl()
    b = run(Scenario(rounds=10, seed=3,
                     delays={"kind": "uniform", "min": 1, "max": 3},
                     byzantine={2: ByzSpec("equivocate", rate=0.5)})).jsonl()
    assert a == b


def test_transcript_roundtrip():
    t = run(Scenario(rounds=8, seed=1))
    again = load_transcript(t.jsonl())
    assert again.header == t.header
    assert again.events == t.events
    assert again.metrics == t.metrics
    assert again.logs == t.logs


def test_send_and_deliver_events_are_untracked_by_the_gc():
    """Each package's ids are one string, which its sends and their
    delivers share, so every event of a run holds only strings and ints and
    the cyclic GC tracks none of them from birth, with no collection. A
    transcript read back holds the dicts JSON built, tracked until a
    collection, which then untracks its send and deliver events."""
    gc.collect()
    gc.disable()
    try:
        t = run(Scenario(n=7, f=2, rounds=8, seed=1,
                         delays={"kind": "uniform", "min": 1, "max": 3},
                         byzantine={6: ByzSpec("equivocate", rate=1.0)}))
        assert not any(map(gc.is_tracked, t.events))
    finally:
        gc.enable()
    again = load_transcript(t.jsonl())
    gc.collect()
    for transcript in (t, again):
        moves = [e for e in transcript.events if e["e"] in ("send", "deliver")]
        assert moves and all(type(e["ids"]) is str for e in moves)
        assert not any(map(gc.is_tracked, moves))
    sent: dict[tuple, list[str]] = {}
    for e in t.events:
        if e["e"] == "send":
            sent.setdefault((e["from"], e["to"], e["ids"]), []).append(e["ids"])
        elif e["e"] == "deliver":
            assert any(ids is e["ids"] for ids in sent[e["from"], e["to"], e["ids"]])


def test_es_zero_delay_every_leader_decides():
    sc = Scenario(rounds=16, seed=0, delays={"kind": "zero"})
    t = run(sc)
    assert t.metrics["decided_rounds"] == list(range(2, 17, 2))
    assert t.metrics["commit_latencies"] == [3] * 8
    assert t.metrics["waves_skipped"] == 0


def test_async_fixed_delay_every_wave_decides():
    sc = Scenario(model="asynchrony", rounds=30, seed=0)
    t = run(sc)
    assert t.metrics["decided_rounds"] == [5, 10, 15, 20, 25, 30]
    assert t.metrics["commit_latencies"] == [6] * 6


def test_crash_keeps_protocol_live():
    sc = Scenario(rounds=20, seed=2, byzantine={1: ByzSpec("crash", round=5)})
    t = run(sc)
    assert t.metrics["decisions"] > 0
    for v in checks.run_all_checks(t):
        assert v.passed, (v.name, v.detail)


def test_n4_equivocator_run_stays_live():
    """Correct miners that built on an equivocator's block before detecting
    it still find a round to build on: the proceed rule counts a round's
    creators as admission does, equivocators included."""
    sc = Scenario(n=4, f=1, model="asynchrony", seed=527296187, rounds=30,
                  delays={"kind": "uniform", "min": 1, "max": 3},
                  adversary={"kind": "reorder", "lag": 2},
                  byzantine={2: ByzSpec("equivocate", rate=0.5)})
    v = checks.check_liveness(checks.RunView(run(sc)))
    assert v.passed, v.detail


def test_n4_es_equivocator_run_passes_every_verifier():
    """The same stall under eventual synchrony, with a corrupt-leader
    adversary."""
    sc = Scenario(n=4, f=1, seed=180269623, rounds=24,
                  delays={"kind": "uniform", "min": 1, "max": 3},
                  adversary={"kind": "corrupt-leader", "lag": 2},
                  byzantine={1: ByzSpec("equivocate", rate=0.5)})
    for v in checks.run_all_checks(run(sc)):
        assert v.passed, (v.name, v.detail)


UNIFORM_1_2 = {"kind": "uniform", "min": 1, "max": 2}


@pytest.mark.parametrize("sc", [
    Scenario(n=4, f=1, model="asynchrony", rounds=25, seed=784, delays=UNIFORM_1_2,
             byzantine={0: ByzSpec("equivocate", rate=0.445, round=4)}),
    Scenario(n=4, f=1, rounds=16, seed=190, delays=UNIFORM_1_2,
             byzantine={0: ByzSpec("equivocate", rate=0.579, round=3)}),
    Scenario(n=7, f=2, model="asynchrony", rounds=25, seed=31,
             delays={"kind": "fixed", "ticks": 1},
             byzantine={3: ByzSpec("equivocate", rate=0.43, round=5),
                        1: ByzSpec("silent")}),
    Scenario(n=7, f=2, model="asynchrony", rounds=25, seed=44,
             delays={"kind": "uniform", "min": 1, "max": 3},
             byzantine={4: ByzSpec("equivocate", rate=0.3),
                        1: ByzSpec("equivocate", rate=0.79)}),
], ids=["784", "190", "31", "44"])
def test_twins_spread_through_the_blocklace(sc):
    """Each twin goes with its closure to half of the peers; the others get
    it only in correct miners' backlogs and bare packages. These runs once
    stalled there, each correct miner buffering blocks over a missing twin."""
    for v in checks.run_all_checks(run(sc)):
        assert v.passed, (v.name, v.detail)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("model", ["eventual-synchrony", "asynchrony"])
def test_fault_free_runs_with_f_0_pass_every_verifier(n, model):
    """Two quorums must share a correct creator for every n >= 3f+1, not
    only at n = 3f+1: with f=0 a quorum of 2f+1 = 1 let miners diverge."""
    for seed in range(6):
        t = run(Scenario(n=n, f=0, model=model, rounds=20, seed=seed))
        assert t.metrics["decided_rounds"], seed
        for v in checks.run_all_checks(t):
            assert v.passed, (seed, v.name, v.detail)


def test_equivocator_with_empty_payloads_forks():
    """With empty payloads the twin would equal its block: it must still
    differ, so the transcript repeats no create and reloads."""
    sc = Scenario(n=7, f=2, rounds=12, seed=0, payload_size=0,
                  byzantine={6: ByzSpec("equivocate", rate=1.0)})
    sim = Simulation(sc)
    t = sim.run()
    for i in sc.correct_miners():
        assert sim.miners[i].store.is_faulty(6)
    for v in checks.run_all_checks(load_transcript(t.jsonl())):
        assert v.passed, (v.name, v.detail)


def test_crashed_miner_blocks_still_delivered():
    sc = Scenario(rounds=20, seed=2, byzantine={1: ByzSpec("crash", round=5)})
    t = run(sc)
    view = checks.RunView(t)
    pre_crash = [h for h, blk in view.blocks.items() if blk.creator == 1]
    assert max(view.block_depth[h] for h in pre_crash) == 5  # the crash round
    for mid in view.correct:
        got = set(view.delivered[mid])
        for h in pre_crash:
            assert h in got


def test_equivocator_detected_and_excluded():
    sc = Scenario(rounds=20, seed=7, delays={"kind": "uniform", "min": 1, "max": 3},
                  byzantine={3: ByzSpec("equivocate", rate=0.6)})
    sim = Simulation(sc)
    t = sim.run()
    for i in sc.correct_miners():
        assert sim.miners[i].store.is_faulty(3)
    # No package from a correct miner goes to the equivocator once detected;
    # spot-check that late sends avoid peer 3.
    late_sends = [e for e in t.events if e["e"] == "send" and e["t"] > t.metrics["end_time"] - 3
                  and e["from"] in sc.correct_miners()]
    assert all(e["to"] != 3 for e in late_sends) or not late_sends
    for v in checks.run_all_checks(t):
        assert v.passed, (v.name, v.detail)


def test_equivocator_halves_never_both_delivered():
    sc = Scenario(rounds=24, seed=11, delays={"kind": "uniform", "min": 1, "max": 3},
                  byzantine={0: ByzSpec("equivocate", rate=0.7)})
    sim = Simulation(sc)
    t = sim.run()
    for i in sc.correct_miners():
        store = sim.miners[i].store
        log = sim.miners[i].log
        halves = blocks_by(store, 0)
        for a in halves:
            for b in halves:
                if a < b and store.is_equivocation(a, b):
                    assert not (a in log.delivered and b in log.delivered)
                    if acknowledges(store, log.current_leader or a, a) and \
                            acknowledges(store, log.current_leader or b, b):
                        assert a in log.suppressed or b in log.suppressed \
                            or a in log.delivered or b in log.delivered


def test_silent_miner_tolerated():
    sc = Scenario(rounds=20, seed=4, byzantine={2: ByzSpec("silent")})
    t = run(sc)
    assert all(e["c"] != 2 for e in t.events if e["e"] == "create")  # makes no block
    assert all(e["from"] != 2 for e in t.events if e["e"] == "send")
    assert t.metrics["decisions"] > 0
    for v in checks.run_all_checks(t):
        assert v.passed, (v.name, v.detail)


def test_payload_drawn_only_for_blocks_made():
    """Every payload draw goes into a block that is made: correct miners,
    an equivocator (two draws per fork, one block each) and a crashing
    miner alike."""
    sc = Scenario(n=7, f=2, rounds=16, seed=10,
                  delays={"kind": "uniform", "min": 1, "max": 3},
                  byzantine={1: ByzSpec("equivocate", rate=0.5),
                             4: ByzSpec("crash", round=6)})
    sim = Simulation(sc)
    draws = []
    draw = sim.next_payload
    sim.next_payload = lambda mid: draws.append(mid) or draw(mid)
    t = sim.run()
    creates = [e["c"] for e in t.events if e["e"] == "create"]
    assert sorted(draws) == sorted(creates)
    assert len(creates) == 130


def test_each_block_id_is_one_string():
    """A block's hex id is made once, with the block: every event and log
    record naming the block holds the very string keying transcript.blocks,
    and so does the ids of a send or deliver of a one-block package; a
    longer package's ids joins its blocks' hex ids. A reject event names its
    block afresh, as the table may lack it; no simulated run rejects a block."""
    sc = Scenario(n=7, f=2, rounds=16, seed=5,
                  delays={"kind": "uniform", "min": 1, "max": 3},
                  byzantine={1: ByzSpec("equivocate", rate=0.5),
                             4: ByzSpec("crash", round=6)})
    t = run(sc)
    key = {h: h for h in t.blocks}
    assert not [e for e in t.events if e["e"] == "reject"]
    named = [e["id"] for e in t.events if e["e"] in ("create", "accept")]
    moves = [e["ids"] for e in t.events if e["e"] in ("send", "deliver")]
    named += [ids for ids in moves if len(ids) == HEX_ID]
    assert all(h in key for ids in moves for h in split_ids(ids))
    for log in t.logs.values():
        named += [r["block"] for r in log["records"]] + log["suppressed"]
    assert {e["e"] for e in t.events} >= {"accept", "send", "deliver"}
    assert len(named) > 10 * len(key)
    assert all(key[h] is h for h in named)


def test_corrupt_leader_expected_case_band():
    sc = Scenario(rounds=60, seed=0, adversary={"kind": "corrupt-leader",
                                                "miner": 3, "lag": 2})
    t = run(sc)
    assert 3.8 <= t.metrics["mean_commit_latency"] <= 5.2
    assert t.metrics["waves_skipped"] > 0


def test_reorder_adversary_is_coin_blind():
    sc = Scenario(model="asynchrony", rounds=40, seed=9,
                  adversary={"kind": "reorder", "lag": 2})
    t = run(sc)
    view = checks.RunView(t)
    assert checks.check_coin_blindness(view).passed
    assert checks.check_model_conformance(view).passed


def test_pre_gst_delays_settle_after_gst():
    sc = Scenario(rounds=24, seed=6, gst=12, delay_bound=4,
                  adversary={"kind": "pre-gst", "max_delay": 10})
    t = run(sc)
    for v in checks.run_all_checks(t):
        assert v.passed, (v.name, v.detail)
    late = [e for e in t.events if e["e"] == "send" and e["t"] >= 12]
    assert late  # runs long enough to exercise the post-GST regime


def _send_delays(t) -> list[tuple[int, int]]:
    """(send tick, delay) of each send, matched to its deliver. Each send
    carries its sender's new block, so (from, to, ids) names it alone."""
    sent = {(e["from"], e["to"], e["ids"]): e["t"] for e in t.events if e["e"] == "send"}
    assert len(sent) == sum(e["e"] == "send" for e in t.events)
    out = []
    for e in t.events:
        if e["e"] == "deliver":
            t0 = sent.pop((e["from"], e["to"], e["ids"]))
            out.append((t0, e["t"] - t0))
    assert not sent
    return out


ES_CLAMPED = Scenario(n=4, rounds=16, seed=3, gst=5, delay_bound=3,
                      delays={"kind": "uniform", "min": 1, "max": 10})


def test_post_gst_delays_are_clamped_to_the_bound():
    """Uniform 1-10 draws exceed delay_bound 3 both sides of GST; from GST
    on, every delivery comes within 3 ticks of its send, so some are
    clamped to exactly 3, and every verifier passes."""
    t = run(ES_CLAMPED)
    delays = _send_delays(t)
    assert max(d for t0, d in delays if t0 < 5) > 3
    late = [d for t0, d in delays if t0 >= 5]
    assert max(late) == 3 and late.count(3) > len(late) // 2
    for v in checks.run_all_checks(t):
        assert v.passed, (v.name, v.detail)


def test_asynchronous_delays_stop_at_max_delay():
    """Asynchrony bounds no delay, but every delay stops at MAX_DELAY, 64
    ticks, so every message is delivered: uniform 1-100 draws reach it."""
    t = run(Scenario(model="asynchrony", rounds=8, seed=2,
                     delays={"kind": "uniform", "min": 1, "max": 100}))
    delays = [d for _, d in _send_delays(t)]
    assert max(delays) == MAX_DELAY and min(delays) >= 1
    for v in checks.run_all_checks(t):
        assert v.passed, (v.name, v.detail)


def test_late_post_gst_delivery_fails_model_conformance():
    """The clamped run's transcript, with one delivery of a post-GST send
    moved to 4 ticks after it, fails model conformance, naming the delay."""
    rows = [json.loads(line) for line in run(ES_CLAMPED).lines()]
    sends = {(r["from"], r["to"], tuple(r["ids"])): r["t"]
             for r in rows if r.get("e") == "send" and r["t"] >= 5}
    late = next(r for r in rows if r.get("e") == "deliver"
                and (r["from"], r["to"], tuple(r["ids"])) in sends)
    late["t"] = sends[late["from"], late["to"], tuple(late["ids"])] + 4
    view = checks.RunView(load_transcript("".join(json.dumps(r) + "\n" for r in rows)))
    verdict = checks.check_model_conformance(view)
    assert not verdict.passed
    assert verdict.detail == "post-GST delay 4 exceeds bound 3"


def test_message_counters_consistent():
    t = run(Scenario(rounds=10, seed=1))
    sends = [e for e in t.events if e["e"] == "send"]
    assert t.metrics["messages_sent"] == len(sends)
    assert t.metrics["bytes_sent"] == sum(e["bytes"] for e in sends)


@pytest.mark.parametrize("sc", [
    Scenario(rounds=12, seed=4, delays={"kind": "uniform", "min": 1, "max": 3},
             byzantine={1: ByzSpec("crash", round=5)}),
    Scenario(model="asynchrony", rounds=15, seed=4,
             delays={"kind": "uniform", "min": 1, "max": 3},
             byzantine={3: ByzSpec("crash", round=6)}),
    Scenario(n=7, f=2, rounds=12, seed=4, delays={"kind": "uniform", "min": 1, "max": 3},
             byzantine={6: ByzSpec("equivocate", rate=0.5)}),
    Scenario(rounds=12, seed=4, delays={"kind": "uniform", "min": 1, "max": 3},
             adversary={"kind": "corrupt-leader", "miner": 2, "lag": 2}),
    Scenario(n=7, f=2, model="asynchrony", rounds=15, seed=4,
             delays={"kind": "uniform", "min": 1, "max": 3},
             adversary={"kind": "reorder", "lag": 2},
             byzantine={6: ByzSpec("equivocate", rate=0.5)}),
], ids=["es-crash", "async-crash", "n7-equivocate", "es-corrupt-leader", "n7-async-reorder"])
def test_send_bytes_are_the_encoded_package(sc):
    """Each send's bytes are its package's encoding, however many peers
    share the package, and bytes_sent is their sum. Each deliver holds the
    very ids string of its send: the package's own."""
    t = run(sc)
    sends = [e for e in t.events if e["e"] == "send"]
    assert sends
    for ev in sends:
        assert ev["bytes"] == len(encode_package([t.blocks[i] for i in split_ids(ev["ids"])]))
    assert t.metrics["bytes_sent"] == sum(e["bytes"] for e in sends)
    pending: dict[tuple[int, int], list[str]] = {}
    for ev in sends:
        pending.setdefault((ev["from"], ev["to"]), []).append(ev["ids"])
    for ev in t.events:
        if ev["e"] == "deliver":
            own = pending[ev["from"], ev["to"]]
            del own[next(k for k, ids in enumerate(own) if ids is ev["ids"])]
    assert not any(pending.values())


def test_decide_trigger_depth_is_anchor_plus_beta():
    t = run(Scenario(rounds=16, seed=0))
    for ev in t.events:
        if ev["e"] == "decide":
            assert ev["trigger"] == ev["round"] + 2


def test_correct_miners_emit_one_block_per_depth():
    sc = Scenario(rounds=20, seed=8, delays={"kind": "uniform", "min": 1, "max": 3},
                  byzantine={2: ByzSpec("equivocate", rate=0.5)})
    sim = Simulation(sc)
    sim.run()
    for i in sc.correct_miners():
        m = sim.miners[i]
        own = blocks_by(m.store, i)
        depths = [m.store.depth_of(b) for b in own]
        assert len(depths) == len(set(depths))
        ordered = sorted(own, key=m.store.depth_of)
        for shallow, deep in zip(ordered, ordered[1:]):
            assert acknowledges(m.store, deep, shallow)


def test_no_duplicate_sends():
    sc = Scenario(rounds=16, seed=9, delays={"kind": "uniform", "min": 1, "max": 3})
    t = run(sc)
    sent: dict[tuple[int, int], list[str]] = {}
    for ev in t.events:
        if ev["e"] == "send":
            sent.setdefault((ev["from"], ev["to"]), []).extend(split_ids(ev["ids"]))
    for (frm, to), ids in sent.items():
        assert len(ids) == len(set(ids)), f"{frm}->{to} resent a block"


def test_es_timer_paces_rounds():
    t = run(Scenario(rounds=10, seed=0, delta=4))
    assert t.metrics["decided_rounds"] == [2, 4, 6, 8, 10]
    assert t.metrics["commit_latencies"] == [3] * 5
    assert t.metrics["end_time"] >= 4 * 10  # rounds paced by the timer


def test_finished_run_leaves_no_cyclic_garbage():
    """A run's objects are freed by reference counting alone, so memory
    does not pile up across back-to-back runs between collections."""
    gc.collect()
    gc.disable()
    try:
        run(Scenario(n=7, f=2, rounds=12, seed=3,
                     byzantine={6: ByzSpec("equivocate", rate=0.5)}))
        assert gc.collect() == 0
    finally:
        gc.enable()
