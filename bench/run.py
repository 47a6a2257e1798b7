"""Blocklace benchmark: run one workload, or all three, and print every
metric by name and unit.

    python3 bench/run.py --workload es-long --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                      # all three workloads, seed 1

Each workload runs in a fresh child process (``bench/worker.py``), one
after another, single-threaded. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result, with machine information and the transcript digest, is
written to ``bench/out/``; a traced run (``--trace 1``) also writes its
spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CHILD_TIMEOUT_S = 170


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "git_sha": git_sha(ROOT)}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    stem = f"{name}-seed{seed}-trace{trace}"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{name}-seed{seed}.tsv.gz")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["machine"] = machine()
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def report(result: dict) -> None:
    name = result["workload"]
    print(f"{name}: {result['attempted']} runs attempted, {result['failed']} failed, "
          f"{result['rounds']} rounds; transcript sha256 "
          f"{result.get('transcript_sha256', '-')}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:45s} {m['value']!r:>24} {m['unit']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure['kind']} run: {'; '.join(failure['problems'])}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.NAMES,
                    help="one workload (default: all three, one after another)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    info = machine()
    print(f"nproc {info['nproc']}, python {info['python']}, git {info['git_sha']}")
    names = [args.workload] if args.workload else list(workloads.NAMES)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        report(result)
        results.append(result)
    if args.workload:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
