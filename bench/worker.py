"""One workload in one process: set-up, timed rounds, checks and metrics.

``bench/run.py`` starts this script in a fresh child process per workload.
It prints its result as one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import layers
import properties
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 21

# The machine's speed drifts by 10-20% over tens of seconds on a shared
# host, and CPU time drifts with wall time. A fixed piece of pure-Python work
# (hashing, dict updates, big-integer ORs, a sort) is timed between runs, at
# most once a second and once after each round. Each run's timings are
# divided by the mean of the samples around it over CALIBRATION_REF_S, so
# they read as seconds at the reference speed. This halved the spread of
# sim_s between 30-second windows in a trial. setup_s is scaled by samples
# taken just before and after the set-ups.
CALIBRATION_REF_S = 0.035
CALIBRATION_EVERY_S = 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "sim_s": "s",
    "verify_s": "s",
    "runs_per_s": "1/s",
    "history_ratio": "ratio",
    "peak_rss_mb": "MB",
    "commit_latency_rounds": "rounds",
    "bytes_per_payload": "B",
}


def import_library():
    """Import ``blocklace`` afresh from the checkout's ``src/``, dropping
    any copy already loaded, so each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "blocklace" or m.startswith("blocklace.")]:
        del sys.modules[name]
    bl = importlib.import_module("blocklace")
    importlib.import_module("blocklace.checks")
    return bl


def set_up(name: str, seed: int):
    """Import, scenario generation and Simulation construction for one round."""
    t0 = time.perf_counter()
    bl = import_library()
    plan = workloads.plan(name, seed, bl.simnet)
    for _, sc in plan.runs():
        bl.simnet.Simulation(sc)
    return time.perf_counter() - t0, bl, plan


def run_one(bl, kind: str, sc, good_case: bool, tracer, digest) -> dict:
    """One run on the path ``blocklace run`` takes: simulate, then verify.
    Only the simulation and the verifiers are timed; the benchmark's own
    property checks and the digest are not."""
    rec = {"kind": kind, "failed": True, "problems": []}
    try:
        c0 = time.perf_counter()
        sim = bl.simnet.Simulation(sc)
        t0 = time.perf_counter()
        with tracer.span(layers.SIM) if tracer else nullcontext():
            transcript = sim.run()
        t1 = time.perf_counter()
        with tracer.span(layers.CHECK) if tracer else nullcontext():
            verdicts = bl.checks.run_all_checks(transcript)
        t2 = time.perf_counter()
    except Exception as exc:  # a run that raises counts as failed, the rest go on
        rec["problems"].append(f"raised {type(exc).__name__}: {exc}")
        return rec
    problems = [f"verifier {v.name}: {v.detail}" for v in verdicts if not v.passed]
    problems += properties.check_run(transcript, bl.blocks.decode_block,
                                     good_case and kind == "full")
    if digest is not None:
        digest.update(transcript.jsonl().encode())
    m = transcript.metrics
    rec.update(failed=bool(problems), problems=problems, build_s=t0 - c0,
               sim_s=t1 - t0, verify_s=t2 - t1,
               latencies=m["commit_latencies"], bytes_per_delivery=m["bytes_per_delivery"])
    return rec


def calibration_sample() -> float:
    """Seconds taken by a fixed piece of work that does not use the library."""
    t0 = time.perf_counter()
    table: dict[bytes, int] = {}
    for i in range(20000):
        key = hashlib.sha256(i.to_bytes(8, "big")).digest()[:8]
        table[key] = table.get(key, 0) | (1 << (i % 512))
    sorted(table, key=lambda k: k[::-1])
    return time.perf_counter() - t0


def run_round(bl, plan, tracer=None, digest=None, calibration=None) -> list[dict]:
    """Every run of one round. When ``calibration`` is a list, calibration
    samples are appended to it and each run records, as ``slowdown``, the
    mean of the samples just before and just after it over the reference."""
    recs = []
    last_sample = float("-inf")
    for kind, sc in plan.runs():
        if calibration is not None and time.perf_counter() - last_sample >= CALIBRATION_EVERY_S:
            calibration.append(calibration_sample())
            last_sample = time.perf_counter()
        recs.append(run_one(bl, kind, sc, plan.good_case, tracer, digest))
        if calibration is not None:
            recs[-1]["sample"] = len(calibration) - 1
    if calibration is not None:
        calibration.append(calibration_sample())
        for r in recs:
            i = r.pop("sample")
            r["slowdown"] = (calibration[i] + calibration[i + 1]) / (2 * CALIBRATION_REF_S)
    return recs


def round_figures(recs: list[dict]) -> dict | None:
    """Per-round timings over the runs that did not fail, at reference speed."""
    ok = [r for r in recs if not r["failed"]]
    full = [r for r in ok if r["kind"] == "full"]
    quarter = [r for r in ok if r["kind"] == "quarter"]
    if not full or not quarter:
        return None

    def mean(runs, key):
        return statistics.fmean(r[key] / r["slowdown"] for r in runs)

    sim, verify = mean(full, "sim_s"), mean(full, "verify_s")
    busy = sum((r["build_s"] + r["sim_s"] + r["verify_s"]) / r["slowdown"] for r in ok)
    return {
        "slowdown": statistics.fmean(r["slowdown"] for r in ok),
        "sim_s": sim,
        "verify_s": verify,
        "run_s": sim + verify,
        "runs_per_s": len(ok) / busy,
        "history_ratio": sim / mean(quarter, "sim_s"),
    }


def output_figures(recs: list[dict]) -> dict:
    """Protocol outputs of one round; every round repeats them exactly."""
    full = [r for r in recs if r["kind"] == "full" and not r["failed"]]
    lats = [x for r in full for x in r["latencies"]]
    bpd = [r["bytes_per_delivery"] for r in full if r["bytes_per_delivery"] is not None]
    return {
        "commit_latency_rounds": statistics.fmean(lats) if lats else None,
        "bytes_per_payload": statistics.fmean(bpd) if bpd else None,
    }


def measure(bl, plan, seconds: float) -> tuple[list[list[dict]], list[dict], str]:
    """Whole rounds, back to back, until the next one would end well past
    ``seconds``. The first round also yields the transcript digest."""
    digest = hashlib.sha256()
    rounds, figures = [], []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        rounds.append(run_round(bl, plan, digest=digest if not rounds else None,
                                calibration=[]))
        figures.append(round_figures(rounds[-1]))
        last = time.perf_counter() - r0
        if time.perf_counter() - start + last / 2 >= seconds:
            return rounds, [f for f in figures if f is not None], digest.hexdigest()


def end_to_end(rounds, setup_samples, per_round) -> dict:
    out = {"setup_s": statistics.median(setup_samples)}
    for key in ("run_s", "sim_s", "verify_s", "runs_per_s", "history_ratio"):
        out[key] = statistics.median(f[key] for f in per_round) if per_round else None
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(output_figures(rounds[0]))
    return out


def traced(bl, plan, spans_path: str) -> tuple[list[list[dict]], dict, int]:
    """One untraced round, then the same round traced; the per-layer
    metrics come from the second, its extra wall time is the overhead."""
    def wall(recs):
        return sum(r.get("build_s", 0) + r.get("sim_s", 0) + r.get("verify_s", 0) for r in recs)

    plain = run_round(bl, plan)
    tracer = Tracer()
    layers.install(tracer, bl)
    try:
        spanned = run_round(bl, plan, tracer=tracer)
    finally:
        tracer.unpatch()
    overhead = 100.0 * (wall(spanned) / wall(plain) - 1.0) if wall(plain) else 0.0
    return [plain, spanned], layers.metrics(tracer, overhead), tracer.write(spans_path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file for the traced run's spans")
    args = ap.parse_args(argv)

    if args.trace and not args.spans:
        ap.error("--trace 1 needs --spans")

    sys.path.insert(0, str(SRC))
    location = import_library().__file__
    if not Path(location).resolve().is_relative_to(SRC):
        print(f"blocklace imported from {location}, not from {SRC}", file=sys.stderr)
        return 2
    setup_samples = []
    before = calibration_sample()
    for _ in range(SETUP_REPEATS):
        elapsed, bl, plan = set_up(args.workload, args.seed)
        setup_samples.append(elapsed)
    slowdown = (before + calibration_sample()) / (2 * CALIBRATION_REF_S)
    setup_samples = [x / slowdown for x in setup_samples]

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "scenarios": len(plan.full)}
    if args.trace:
        rounds, values, spans = traced(bl, plan, args.spans)
        units = layers.UNITS
        result["spans"] = spans
    else:
        rounds, result["per_round"], result["transcript_sha256"] = measure(
            bl, plan, args.seconds)
        values = end_to_end(rounds, setup_samples, result["per_round"])
        units = END_TO_END_UNITS
    recs = [r for rnd in rounds for r in rnd]
    failures = [{"kind": r["kind"], "problems": r["problems"]} for r in recs if r["failed"]]
    result.update(
        rounds=len(rounds), attempted=len(recs), failed=len(failures),
        correct=not failures and all(values[k] is not None for k in units),
        failures=failures[:10],
        metrics={k: {"value": values[k], "unit": units[k]} for k in units})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
