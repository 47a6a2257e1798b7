"""Command-line front end: seeded runs, sweeps, transcript checking, and
DOT traces."""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys

from . import checks, simnet
from .config import ConfigError, expand_sweep, load_config
from .dot import render_dot


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _log(msg: str) -> None:
    if os.environ.get("BLOCKLACE_LOG", "info") != "quiet":
        print(msg, file=sys.stderr)


def _log_verdicts(prefix: str, verdicts) -> None:
    for v in verdicts:
        state = ("pass" if v.passed else "FAIL") if v.applicable else "n/a"
        _log(f"{prefix}{v.name}: {state} ({v.detail})")


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    transcript = simnet.run(cfg.scenario)
    out = args.out or cfg.out_dir
    _write(os.path.join(out, "transcript.jsonl"), transcript.jsonl())
    _write(os.path.join(out, "metrics.json"),
           json.dumps(transcript.metrics, sort_keys=True, indent=2) + "\n")
    for mid, log in sorted(transcript.logs.items()):
        lines = [simnet.json_line(r) for r in log["records"]]
        _write(os.path.join(out, f"deliveries-{mid}.jsonl"),
               "\n".join(lines) + ("\n" if lines else ""))
    verdicts = checks.run_all_checks(transcript)
    _log_verdicts("check ", verdicts)
    report = {"checks": [v.to_dict() for v in verdicts],
              "all_passed": checks.all_passed(verdicts)}
    _write(os.path.join(out, "checks.json"),
           json.dumps(report, sort_keys=True, indent=2) + "\n")
    mean = transcript.metrics.get("mean_commit_latency")
    _log(f"run complete: {transcript.metrics['decisions']} decisions, "
         f"mean latency {mean}")
    return 0 if report["all_passed"] else 1


SWEEP_FIELDS = ["n", "f", "model", "adversary", "seed", "decisions",
                "mean_latency", "p50_latency", "messages", "bytes",
                "bytes_per_delivery", "bytes_per_unique_payload",
                "waves_skipped", "error"]


def cmd_sweep(args) -> int:
    try:
        cfg = load_config(args.config)
        points = expand_sweep(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    rows = []
    for sc in points:
        row = {"n": sc.n, "f": sc.f, "model": sc.model,
               "adversary": sc.adversary.get("kind"), "seed": sc.seed}
        try:
            metrics = simnet.run(sc).metrics
            row.update({
                "decisions": metrics["decisions"],
                "mean_latency": metrics["mean_commit_latency"],
                "p50_latency": metrics["p50_commit_latency"],
                "messages": metrics["messages_sent"],
                "bytes": metrics["bytes_sent"],
                "bytes_per_delivery": metrics["bytes_per_delivery"],
                "bytes_per_unique_payload": metrics["bytes_per_unique_payload"],
                "waves_skipped": metrics["waves_skipped"],
                "error": "",
            })
        except Exception as exc:  # partial failures stay in the CSV
            row.update({"error": str(exc)})
        rows.append(row)
    rows.sort(key=lambda r: (r["n"], r["model"], str(r["adversary"]), r["seed"]))
    rows.extend(_aggregate_rows(rows))
    out = args.out or os.path.join(cfg.out_dir, "sweep.csv")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    _log(f"sweep complete: {len(points)} runs -> {out}")
    return 0


def _aggregate_rows(rows) -> list[dict]:
    """One aggregate row per (n, model, adversary) point, seed column '*'."""
    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        if r.get("error"):
            continue
        groups.setdefault((r["n"], r["model"], r["adversary"]), []).append(r)
    agg = []
    for (n, model, adv), members in sorted(groups.items(), key=lambda kv: (
            kv[0][0], str(kv[0][1]), str(kv[0][2]))):
        lat = [m["mean_latency"] for m in members if m["mean_latency"] is not None]
        bpd = [m["bytes_per_delivery"] for m in members
               if m["bytes_per_delivery"] is not None]
        agg.append({
            "n": n, "f": members[0]["f"], "model": model, "adversary": adv,
            "seed": "*",
            "decisions": sum(m["decisions"] for m in members),
            "mean_latency": round(statistics.fmean(lat), 6) if lat else None,
            "p50_latency": statistics.median(lat) if lat else None,
            "messages": sum(m["messages"] for m in members),
            "bytes": sum(m["bytes"] for m in members),
            "bytes_per_delivery": round(statistics.fmean(bpd), 6) if bpd else None,
            "bytes_per_unique_payload": None,
            "waves_skipped": sum(m["waves_skipped"] for m in members),
            "error": "",
        })
    return agg


def cmd_check(args) -> int:
    all_ok = True
    report = {}
    for path in args.transcripts:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                transcript = simnet.load_transcript(fh.read())
        except (OSError, ValueError) as exc:
            print(f"error reading {path}: {exc}", file=sys.stderr)
            return 2
        verdicts = checks.run_all_checks(transcript)
        report[path] = [v.to_dict() for v in verdicts]
        _log_verdicts(f"{path}: ", verdicts)
        all_ok = all_ok and checks.all_passed(verdicts)
    print(json.dumps({"transcripts": report, "all_passed": all_ok},
                     sort_keys=True, indent=2))
    return 0 if all_ok else 1


def cmd_trace(args) -> int:
    try:
        with open(args.transcript, "r", encoding="utf-8") as fh:
            view = checks.RunView(simnet.load_transcript(fh.read()))
        store = view.replay(None)
    except (OSError, ValueError) as exc:  # ReplayError is a ValueError
        print(f"error reading {args.transcript}: {exc}", file=sys.stderr)
        return 2
    max_round = args.round if args.round is not None else store.max_depth()
    if max_round < 0 or (store.max_depth() and max_round > store.max_depth()):
        print(f"round {max_round} out of range (run reached "
              f"{store.max_depth()})", file=sys.stderr)
        return 2
    text = render_dot(store, view.schedule(), max_round)
    if args.out:
        _write(args.out, text)
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocklace",
        description="Blocklace atomic-broadcast simulator and verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one seeded run and check it")
    p_run.add_argument("config")
    p_run.add_argument("--out", help="output directory (default from config)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run every sweep point to a CSV")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--out", help="CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="re-verify recorded transcripts")
    p_check.add_argument("transcripts", nargs="+")
    p_check.set_defaults(func=cmd_check)

    p_trace = sub.add_parser("trace", help="render the blocklace as DOT")
    p_trace.add_argument("transcript")
    p_trace.add_argument("--round", type=int, default=None)
    p_trace.add_argument("--out")
    p_trace.set_defaults(func=cmd_trace)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
