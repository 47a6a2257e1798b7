"""End-to-end CLI: run, sweep, check, trace, and config validation."""

from __future__ import annotations

import csv
import json

import pytest

from blocklace.cli import main


def write_config(tmp_path, name="config.json", **overrides):
    doc = {"n": 4, "f": 1, "model": "eventual-synchrony", "seed": 1,
           "rounds": 12, "out_dir": str(tmp_path / "out")}
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_produces_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", cfg]) == 0
    out = tmp_path / "out"
    assert (out / "transcript.jsonl").exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["mean_commit_latency"] == 3.0
    assert (out / "checks.json").exists()
    for mid in range(4):
        lines = (out / f"deliveries-{mid}.jsonl").read_text().splitlines()
        rows = [json.loads(ln) for ln in lines]
        assert rows and list(rows[0]) == sorted(
            ["position", "block", "creator", "depth", "leader_round"])


def test_run_async_good_case(tmp_path):
    cfg = write_config(tmp_path, model="asynchrony", rounds=30)
    assert main(["run", cfg]) == 0
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert metrics["mean_commit_latency"] == 6.0


def test_run_rejects_invalid_quorum(tmp_path, capsys):
    cfg = write_config(tmp_path, f=2)
    assert main(["run", cfg]) == 2
    assert "n >= 3f+1" in capsys.readouterr().err


def test_run_rejects_unknown_key(tmp_path, capsys):
    cfg = write_config(tmp_path, bogus=1)
    assert main(["run", cfg]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_sweep_rejects_point_invalid_for_its_n(tmp_path, capsys):
    cfg = write_config(tmp_path, n=7, f=2, byzantine={"6": {"behavior": "silent"}},
                       sweep={"n": [4, 7]})
    assert main(["sweep", cfg, "--out", str(tmp_path / "sweep.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "out of range" in err


def test_run_is_reproducible(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", cfg, "--out", str(tmp_path / "b")]) == 0
    for name in ("transcript.jsonl", "metrics.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_sweep_csv(tmp_path):
    cfg = write_config(tmp_path, rounds=10,
                       sweep={"n": [4, 7], "seeds": [0, 1]})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    per_seed = [r for r in rows if r["seed"] != "*"]
    agg = [r for r in rows if r["seed"] == "*"]
    assert len(per_seed) == 4
    assert len(agg) == 2
    assert {r["n"] for r in agg} == {"4", "7"}
    assert all(r["error"] == "" for r in rows)


def test_check_command_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path)
    main(["run", cfg])
    transcript = tmp_path / "out" / "transcript.jsonl"
    assert main(["check", str(transcript)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] is True


def test_check_detects_corruption(tmp_path, capsys):
    cfg = write_config(tmp_path)
    main(["run", cfg])
    path = tmp_path / "out" / "transcript.jsonl"
    lines = path.read_text().splitlines()
    for i, ln in enumerate(lines):
        row = json.loads(ln)
        if row.get("e") == "log" and row["m"] == 0:
            a, b = row["records"][0]["block"], row["records"][1]["block"]
            row["records"][0]["block"], row["records"][1]["block"] = b, a
            lines[i] = json.dumps(row, sort_keys=True, separators=(",", ":"))
            break
    path.write_text("\n".join(lines) + "\n")
    assert main(["check", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] is False


def test_trace_dot_output(tmp_path, capsys):
    cfg = write_config(tmp_path, rounds=4)
    main(["run", cfg])
    transcript = tmp_path / "out" / "transcript.jsonl"
    assert main(["trace", str(transcript), "--round", "2"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph blocklace")
    assert dot.count("[label=") == 8  # two full rounds of four blocks
    assert "fillcolor=lightblue" in dot  # leader highlighted


def test_trace_round_out_of_range(tmp_path, capsys):
    cfg = write_config(tmp_path, rounds=4)
    main(["run", cfg])
    transcript = tmp_path / "out" / "transcript.jsonl"
    assert main(["trace", str(transcript), "--round", "99"]) == 2


def test_trace_fork_is_double_bordered(tmp_path):
    cfg = write_config(tmp_path, rounds=12, seed=11,
                       delays={"kind": "uniform", "min": 1, "max": 3},
                       byzantine={"0": {"behavior": "equivocate", "rate": 0.7}})
    main(["run", cfg])
    out = tmp_path / "dot.gv"
    main(["trace", str(tmp_path / "out" / "transcript.jsonl"), "--out", str(out)])
    assert "peripheries=2" in out.read_text()


def test_trace_round_zero_is_empty_graph(tmp_path, capsys):
    cfg = write_config(tmp_path, rounds=4)
    main(["run", cfg])
    assert main(["trace", str(tmp_path / "out" / "transcript.jsonl"),
                 "--round", "0"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph blocklace")
    assert "label=" not in dot


def test_shipped_configs_are_valid_and_run(tmp_path):
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent / "configs"
    from blocklace.config import expand_sweep, load_config
    for path in sorted(root.glob("*.json")):
        cfg = load_config(str(path))
        points = expand_sweep(cfg)
        assert points
    assert main(["run", str(root / "es-good-case.json"),
                 "--out", str(tmp_path / "good")]) == 0
    metrics = json.loads((tmp_path / "good" / "metrics.json").read_text())
    assert metrics["commit_latencies"] == [3] * 20
