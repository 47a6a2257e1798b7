"""Self-test of the benchmark itself, kept apart from the library's suite.

    python3 -m pytest bench/selftest -q

It checks the tracer's self-time arithmetic on a scripted clock, that the
property checks pass a clean transcript and fail corrupted ones, and that
BENCHMARK.json names exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import hashlib
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import properties  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

from blocklace.blocks import decode_block, encode_block, make_block  # noqa: E402
from blocklace.simnet import Scenario, Transcript, run  # noqa: E402


def scripted_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


class Nested:
    def outer(self):
        self.inner()
        self.inner()

    def inner(self):
        pass


def test_self_time_subtracts_direct_children():
    # phase opens 0; outer 1..12; inner 2..4 and 5..8; phase closes 13.
    originals = dict(vars(Nested))
    tracer = Tracer(clock=scripted_clock(0, 1, 2, 4, 5, 8, 12, 13))
    tracer.wrap_method(Nested, "outer", "outer")
    tracer.wrap_method(Nested, "inner", "inner")
    try:
        with tracer.span("phase.sim"):
            Nested().outer()
    finally:
        tracer.unpatch()
    s = tracer.summary()
    assert s[("phase.sim", "outer")] == {"calls": 1, "total_s": 11.0, "self_s": 6.0}
    assert s[("phase.sim", "inner")] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}
    assert s[("phase.sim", "phase.sim")]["self_s"] == 2.0
    assert vars(Nested)["outer"] is originals["outer"]
    assert vars(Nested)["inner"] is originals["inner"]


def test_wrap_function_reaches_every_module_that_imported_it():
    def helper():
        return 7

    pkg, user = types.ModuleType("fakepkg"), types.ModuleType("fakepkg.user")
    pkg.helper = user.helper = helper
    sys.modules.update({"fakepkg": pkg, "fakepkg.user": user})
    tracer = Tracer()
    try:
        tracer.wrap_function(helper, "helper", "fakepkg")
        with tracer.span("phase.sim"):
            assert pkg.helper() + user.helper() == 14
        tracer.unpatch()
        assert user.helper is helper
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.user"]
    assert tracer.summary()[("phase.sim", "helper")]["calls"] == 2


@pytest.fixture(scope="module")
def good_run():
    return run(Scenario(n=4, f=1, rounds=20, seed=5))


def corrupted(t: Transcript, seq: list[str], extra_events=()) -> Transcript:
    logs = {m: dict(log) for m, log in t.logs.items()}
    logs[0] = {"records": [{"block": h} for h in seq], "suppressed": []}
    return Transcript(t.header, list(t.events) + list(extra_events), logs, t.metrics)


def test_clean_transcript_passes(good_run):
    assert properties.check_run(good_run, decode_block, good_case=True) == []


def test_swapped_pair_fails(good_run):
    lat = properties.Lattice(good_run, decode_block)
    seq = [r["block"] for r in good_run.logs[0]["records"]]
    k = next(k for k in range(len(seq) - 1)
             if lat.index[seq[k]] in lat.parents[lat.index[seq[k + 1]]])
    seq[k], seq[k + 1] = seq[k + 1], seq[k]
    problems = properties.check_run(corrupted(good_run, seq), decode_block, good_case=False)
    assert any("before its pointee" in p for p in problems)
    assert any("diverge" in p for p in problems)


def test_injected_equivocation_twin_fails(good_run):
    seq = [r["block"] for r in good_run.logs[0]["records"]]
    create = {e["id"]: e for e in good_run.events if e["e"] == "create"}
    k = len(seq) // 2
    original = decode_block(bytes.fromhex(create[seq[k]]["enc"]))
    twin = make_block(original.creator, original.payload + b"twin", original.pointers)
    enc = encode_block(twin)
    tid = hashlib.sha256(enc).hexdigest()
    event = {"e": "create", "id": tid, "enc": enc.hex(), "c": twin.creator}
    seq.insert(k + 1, tid)
    problems = properties.check_run(corrupted(good_run, seq, [event]), decode_block,
                                    good_case=False)
    assert any("equivocating pair" in p for p in problems)


def test_good_case_latency_is_enforced(good_run):
    events = [dict(e, trigger=e["trigger"] + 1) if e["e"] == "decide" else e
              for e in good_run.events]
    slow = Transcript(good_run.header, events, good_run.logs, good_run.metrics)
    assert any("latency 4, not 3" in p for p in properties.check_run(slow, decode_block, True))


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(worker.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == worker.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(worker.workloads.NAMES)
