"""End-to-end CLI: run, sweep, check, trace, and config validation."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blocklace.blocks import Keyring, block_id, decode_block, encode_block, make_block
from blocklace import simnet
from blocklace.cli import main
from blocklace.simnet import Scenario, run

from helpers_oracle import bf_equivocation
from test_golden import SCENARIOS as GOLDEN


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


@pytest.mark.parametrize("overrides", [
    {"rounds": "x"},
    {"batch": "x"},
    {"byzantine": {"1": {"behavior": "crash", "round": "soon"}}},
    {"delays": {"kind": "uniform", "min": "a"}},
], ids=["rounds", "batch", "byzantine-round", "delays-min"])
def test_run_rejects_mistyped_value(tmp_path, capsys, overrides):
    """A value the run would later pass to int() is checked at load time."""
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("spec", [
    {"behavior": "equivocate", "rate": "nan"},
    {"behavior": "equivocate", "rate": "inf"},
    {"behavior": "equivocate", "rate": -1},
    {"behavior": "equivocate", "rate": 5.0},
    {"behavior": "equivocate", "rate": True},
    {"behavior": "crash", "round": -3},
], ids=["rate-nan", "rate-inf", "rate-negative", "rate-above-1", "rate-bool",
        "round-negative"])
def test_run_rejects_meaningless_byzantine_spec(tmp_path, capsys, spec):
    """A rate outside [0, 1] or a negative crash round describes no run. A
    rate of "nan" once reached the transcript header as a bare NaN, which is
    not JSON, and its miner never equivocated."""
    cfg = write_config(tmp_path, byzantine={"0": spec})
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides", [
    {"delays": {"kind": "uniform", "min": 3, "max": 1}},
    {"delays": {"kind": "fixed", "ticks": -1}},
    {"delays": {"kind": "uniform", "min": -2, "max": 3}},
    {"adversary": {"kind": "corrupt-leader", "miner": "3"}},
    {"adversary": {"kind": "corrupt-leader", "miner": True}},
    {"adversary": {"kind": "corrupt-leader", "miner": 9}},
    {"gst": 5, "adversary": {"kind": "pre-gst", "max_delay": 0}},
    {"delta": -1},
    {"delay_bound": -1},
    {"delays": {"kind": "fixed", "tick": 3}},
    {"adversary": {"kind": "reorder", "lags": 5}},
    {"byzantine": {"3": {"behavior": "crash", "rnd": 5}}},
    {"adversary": {"kind": "random-delay"}},
    {"rounds": 2.7},
    {"n": True, "f": 0},
    {"delays": {"kind": "fixed", "ticks": 1.9}},
    {"seed": -1},
    {"seed": 2 ** 64},
    {"byzantine": {"1": {"behavior": "silent"},
                   "01": {"behavior": "equivocate", "rate": 1.0}}},
    {"adversary": {"kind": "pre-gst"}},
    {"model": "asynchrony", "adversary": {"kind": "pre-gst"}},
    {"gst": -1},
    {"rounds": 200, "settle_rounds": -300},
], ids=["min-above-max", "negative-ticks", "negative-min", "miner-string", "miner-bool",
        "miner-out-of-range", "pre-gst-max-delay-0", "negative-delta",
        "negative-delay-bound", "delays-tick", "adversary-lags", "byzantine-rnd",
        "random-delay", "fractional-rounds", "bool-n", "fractional-ticks",
        "negative-seed", "seed-above-64-bits", "byzantine-named-twice",
        "pre-gst-gst-0", "pre-gst-asynchrony", "negative-gst", "negative-settle-rounds"])
def test_run_rejects_value_that_would_run_another_experiment(tmp_path, capsys, overrides):
    """Each of these used to crash mid-run or silently run something else:
    delays before sends, a failed liveness check, no victim at all, a
    misspelled key's default (1-tick delays, a crash at round 0), the
    delays of adversary kind none (the removed random-delay, and pre-gst
    with gst 0, which asynchrony forces), a GST before the run's start
    (every delay bounded, as at gst 0), an int read from a bool or truncated
    from a fraction (2 rounds for 2.7, one miner for true, miner 1 as the
    victim for true, 1-tick delays for 1.9 while the header records 1.9), a seed the keyring cannot
    encode in 8 bytes, one miner named by two Byzantine specs, the
    later one silently winning, or a negative settle_rounds (no block
    created, nothing decided, and every verifier passing)."""
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sweep", [
    {"n": 7},
    {"seed_count": "x"},
    {"n": ["x"]},
    {"adversary": [{"kind": "corrupt-leader", "lag": "x"}]},
    {"adversary": [{"kind": "corrupt-leader", "lga": 3}]},
    {"seeds": [1.5]},
    {"seeds": [-1]},
], ids=["n-not-a-list", "seed_count", "n", "adversary-lag", "adversary-lag-misspelled",
        "fractional-seed", "negative-seed"])
def test_sweep_rejects_mistyped_value(tmp_path, capsys, sweep):
    cfg = write_config(tmp_path, sweep=sweep)
    assert main(["sweep", cfg, "--out", str(tmp_path / "sweep.csv")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_non_string_out_dir_refused_before_any_run(tmp_path, capsys, command):
    """Without --out, both commands join paths onto out_dir; a number used
    to end them in a TypeError only after every simulation had run."""
    cfg = write_config(tmp_path, out_dir=5)
    assert main([command, cfg]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}: out_dir must be a string, got 5\n"


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


# Runs that must finish with every verifier passing, each on a path that
# shorter runs miss.
CHECKED_RUNS = {
    # A fault-free run whose quorum is above 2f+1.
    "f0": {"n": 4, "f": 0, "model": "asynchrony", "rounds": 20, "seed": 0},
    # An equivocator with empty payloads.
    "twin": {"n": 7, "f": 2, "rounds": 12, "seed": 0, "payload_size": 0,
             "byzantine": {"6": {"behavior": "equivocate", "rate": 1.0}}},
    # Live only if correct miners' backlogs and bare packages carry each twin
    # to the peers its creator skipped.
    "twin4": {"n": 4, "f": 1, "model": "asynchrony", "rounds": 25, "seed": 784,
              "delays": {"kind": "uniform", "min": 1, "max": 2},
              "byzantine": {"0": {"behavior": "equivocate", "rate": 0.445, "round": 4}}},
    # 14 correct stores share one block table through buffered inserts and
    # cascades.
    "wide16": {"n": 16, "f": 5, "model": "asynchrony", "rounds": 20, "seed": 2,
               "delays": {"kind": "uniform", "min": 1, "max": 3},
               "byzantine": {"3": {"behavior": "equivocate", "rate": 0.5},
                             "9": {"behavior": "crash", "round": 6}}},
    # Timer and coin-reveal pokes fall on the tick that pushed them.
    "zero-es": {"n": 4, "rounds": 16, "seed": 15, "delta": 2, "delays": {"kind": "zero"}},
    "zero-async": {"n": 7, "f": 2, "model": "asynchrony", "rounds": 15, "seed": 16,
                   "delays": {"kind": "zero"},
                   "byzantine": {"4": {"behavior": "equivocate", "rate": 0.5}}},
    # 31 stores share each ratification verdict and fragment the table keeps.
    "wide31": {"n": 31, "f": 10, "rounds": 24, "seed": 1,
               "delays": {"kind": "fixed", "ticks": 1}},
    # The adversaries read a package's depths from the block table.
    "corrupt-es": {"n": 4, "rounds": 20, "seed": 7,
                   "delays": {"kind": "uniform", "min": 1, "max": 3},
                   "adversary": {"kind": "corrupt-leader", "miner": 1, "lag": 3}},
    "reorder7": {"n": 7, "f": 2, "model": "asynchrony", "rounds": 20, "seed": 8,
                 "delays": {"kind": "uniform", "min": 1, "max": 3},
                 "adversary": {"kind": "reorder", "lag": 2},
                 "byzantine": {"5": {"behavior": "equivocate", "rate": 0.5}}},
    # Post-GST sends clamped to delay_bound.
    "clamp-es": {"n": 4, "rounds": 16, "seed": 3, "gst": 5, "delay_bound": 3,
                 "delays": {"kind": "uniform", "min": 1, "max": 10}},
    # A silent miner and one that crashes at round 5.
    "silent7": {"n": 7, "f": 2, "rounds": 16, "seed": 14,
                "delays": {"kind": "uniform", "min": 1, "max": 3},
                "byzantine": {"3": {"behavior": "silent"},
                              "5": {"behavior": "crash", "round": 5}}},
}


@pytest.mark.parametrize("name", CHECKED_RUNS)
def test_run_and_check_pass(tmp_path, name):
    cfg, out = tmp_path / f"{name}.json", tmp_path / name
    cfg.write_text(json.dumps(CHECKED_RUNS[name]))
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert main(["check", str(out / "transcript.jsonl")]) == 0


def test_sweep_csv(tmp_path):
    cfg = write_config(tmp_path, rounds=10,
                       sweep={"n": [4, 7], "seeds": [0, 1]})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", cfg, "--out", str(out)]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    per_seed = [r for r in rows if r["seed"] != "*"]
    agg = [r for r in rows if r["seed"] == "*"]
    assert len(per_seed) == 4
    assert len(agg) == 2
    assert {r["n"] for r in agg} == {"4", "7"}
    assert all(r["error"] == "" for r in rows)


def test_sweep_point_that_raises_is_an_error_row(tmp_path, monkeypatch):
    """A sweep point whose run raises is written as a row with its error,
    and the aggregate row of its point counts only the runs that finished."""
    real = simnet.run

    def run_or_fail(sc):
        if sc.seed == 1:
            raise RuntimeError("simulation did not quiesce")
        return real(sc)

    monkeypatch.setattr(simnet, "run", run_or_fail)
    cfg = write_config(tmp_path, rounds=8, sweep={"seeds": [0, 1]})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", cfg, "--out", str(out)]) == 0
    with out.open() as fh:
        ok, failed, agg = csv.DictReader(fh)
    assert (ok["seed"], ok["error"]) == ("0", "")
    assert (failed["seed"], failed["error"], failed["decisions"]) == (
        "1", "simulation did not quiesce", "")
    assert agg["seed"] == "*"
    assert [agg[k] for k in ("decisions", "messages", "bytes")] == [
        ok[k] for k in ("decisions", "messages", "bytes")]


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


def test_check_reports_unreplayable_accept_order(tmp_path, capsys):
    """A miner's accept order that no fresh store can replay is a failing
    ordering-equivalence verdict in the report, not a traceback."""
    cfg = write_config(tmp_path, rounds=16, seed=0)
    main(["run", cfg])
    path = tmp_path / "out" / "transcript.jsonl"
    rows = [json.loads(ln) for ln in path.read_text().splitlines()]
    mine = [r for r in rows if r.get("e") == "accept" and r["m"] == 3]
    mine[0]["id"], mine[-1]["id"] = mine[-1]["id"], mine[0]["id"]
    path.write_text("".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                            for r in rows))
    assert main(["check", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] is False
    verdict = {v["name"]: v for v in report["transcripts"][str(path)]}["ordering-equivalence"]
    assert not verdict["passed"]
    assert verdict["detail"].startswith("transcript replay failed for miner 3: ")


def test_check_reports_undefined_accept(tmp_path, capsys):
    """An accept event whose id no create event defines is a failing
    verdict naming the miner and the id, not a traceback."""
    cfg = write_config(tmp_path, rounds=8, seed=0)
    main(["run", cfg])
    path = tmp_path / "out" / "transcript.jsonl"
    rows = [json.loads(ln) for ln in path.read_text().splitlines()]
    next(r for r in rows if r.get("e") == "accept" and r["m"] == 1)["id"] = "00" * 32
    path.write_text("".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                            for r in rows))
    assert main(["check", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] is False
    verdicts = {v["name"]: v for v in report["transcripts"][str(path)]}
    for name in ("convergence", "ordering-equivalence"):
        assert not verdicts[name]["passed"]
        assert verdicts[name]["detail"] == "miner 1 accepted undefined block " + "0" * 12


@pytest.mark.parametrize("change", [
    {"model": "bogus"},
    {"byzantine": {"x": {"behavior": "silent"}}},
    {"f": 3},
    {"seed": -1},
    {"seed": 2 ** 64},
], ids=["model", "byzantine-key", "quorum", "negative-seed", "seed-above-64-bits"])
@pytest.mark.parametrize("command", ["check", "trace"])
def test_bad_transcript_header_is_a_read_error(tmp_path, capsys, command, change):
    cfg = write_config(tmp_path, rounds=4)
    main(["run", cfg])
    path = tmp_path / "out" / "transcript.jsonl"
    header, *rest = path.read_text().splitlines(keepends=True)
    doc = json.loads(header)
    doc["scenario"].update(change)
    path.write_text(json.dumps(doc) + "\n" + "".join(rest))
    capsys.readouterr()
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error reading {path}: transcript header: ")


SHORT_RUN = run(Scenario(rounds=4, seed=0)).lines()
ASYNC_SHORT_RUN = run(Scenario(model="asynchrony", rounds=4, seed=0)).lines()


def _nth(rows, kind, k):
    """Index in rows of the k-th event of the given kind (wrapping)."""
    at = [i for i, r in enumerate(rows) if isinstance(r, dict) and r.get("e") == kind]
    return at[k % len(at)]


def mutate(mutation: str, k: int, source=SHORT_RUN) -> tuple[list[str], int]:
    """The source run's lines with one line malformed, dropped, duplicated,
    swapped with the next, given another id or inserted as a flush line, and
    that line's number. A send given another id takes its deliver along."""
    rows = [json.loads(ln) for ln in source]
    i = 1 + k % (len(rows) - 1)  # any line but the header
    if mutation == "not-an-object":
        i = 1 + k % len(rows)  # the end of the file too
        rows.insert(i, [1])
    elif mutation == "drop-line":
        del rows[i]
    elif mutation == "duplicate-line":
        rows.insert(i, rows[i])
    elif mutation == "swap-lines":
        i = min(i, len(rows) - 2)
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
    elif mutation == "corrupt-id":
        i = _nth(rows, "create" if k % 2 else "accept", k // 2)
        rows[i]["id"] = ("1" if rows[i]["id"][0] == "0" else "0") + rows[i]["id"][1:]
    elif mutation == "accept-miner":
        i = _nth(rows, "accept", k)
        rows[i]["m"] = 9
    elif mutation in ("accept-repeated", "create-repeated", "log-repeated"):
        i = _nth(rows, mutation.split("-")[0], k) + 1
        rows.insert(i, rows[i - 1])
    elif mutation == "coin-call-miner":
        i = _nth(rows, "coin-call", k)
        rows[i]["m"] = 9
    elif mutation == "create-depth":
        i = _nth(rows, "create", k)
        rows[i]["d"] = 99
    elif mutation == "create-creator":
        i = _nth(rows, "create", k)
        rows[i]["c"] = (rows[i]["c"] + 3) % 4  # 3 on the first create, miner 0's
    elif mutation == "create-id-not-hash":
        i = _nth(rows, "create", k)
        rows[i]["id"] = "00" * 32
    elif mutation == "create-zero-sig":
        i = _nth(rows, "create", k)
        rows[i]["sig"] = "00" * 32
    elif mutation == "create-no-enc":
        i = _nth(rows, "create", k)
        del rows[i]["enc"]
    elif mutation == "send-undefined-id":  # a send, and its deliver, of no created block
        i = _nth(rows, "send", k)
        sent = rows[i]
        deliver = next(r for r in rows[i:] if r.get("e") == "deliver" and
                       (r["from"], r["to"], r["ids"]) == (sent["from"], sent["to"], sent["ids"]))
        sent["ids"] = deliver["ids"] = ["ab" * 32]
    elif mutation == "flush-line":  # a step no miner can take: reading every store
        rows.insert(i, {"e": "flush", "t": 0, "from": 0, "to": 1, "count": 1})
    else:
        i = _nth(rows, "create", k)
        rows[i]["enc"] = "zz"
    return [json.dumps(r, sort_keys=True) for r in rows], i + 1


# Each makes the line it hits unreadable; coin-call-miner needs an
# asynchronous run, the only kind with coin calls.
MUTATIONS = ["not-an-object", "accept-miner", "accept-repeated", "coin-call-miner",
             "create-depth", "create-creator", "create-id-not-hash", "create-zero-sig",
             "create-no-enc", "create-enc-not-hex", "create-repeated", "log-repeated",
             "flush-line", "send-undefined-id"]
# Whole-line changes to the event stream, and ids that no longer match.
STREAM_MUTATIONS = ["drop-line", "duplicate-line", "swap-lines", "corrupt-id"]


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("command", ["check", "trace"])
def test_malformed_transcript_line_is_a_read_error(tmp_path, capsys, command, mutation):
    source = ASYNC_SHORT_RUN if mutation == "coin-call-miner" else SHORT_RUN
    lines, k = mutate(mutation, len(source) if mutation == "not-an-object" else 0, source)
    path = tmp_path / "transcript.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error reading {path}: line {k}: ")


def test_create_of_an_undefined_pointee_is_a_read_error(tmp_path, capsys):
    """With the first create dropped, and the sends and delivers of its
    block, the first create pointing at its block names a block no earlier
    create defines."""
    rows = [json.loads(ln) for ln in SHORT_RUN]
    gone = bytes.fromhex(rows.pop(_nth(rows, "create", 0))["id"])
    rows = [r for r in rows if gone.hex() not in r.get("ids", ())]
    k = 1 + next(i for i, r in enumerate(rows) if r.get("e") == "create"
                 and gone in decode_block(bytes.fromhex(r["enc"])).pointers)
    path = tmp_path / "transcript.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error reading {path}: line {k}: create event points at a block that no earlier ")


@pytest.mark.parametrize("kind", ["send", "deliver"])
def test_package_of_an_undefined_block_is_a_read_error(tmp_path, capsys, kind):
    rows = [json.loads(ln) for ln in SHORT_RUN]
    k = _nth(rows, kind, 0)
    rows[k]["ids"] = [*rows[k]["ids"], "ab" * 32]
    path = tmp_path / "transcript.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (f"error reading {path}: line {k + 1}: {kind} event "
                                       f"names block {'ab' * 6} that no earlier create defines\n")


def test_check_of_a_huge_header_n_stops_at_the_first_missing_log(tmp_path, capsys):
    """A four-miner run whose header claims a million miners is refused at
    miner 4, the first without a log line, so what check does is bounded by
    the file, not by the n its header claims."""
    doc = json.loads(SHORT_RUN[0])
    doc["scenario"]["n"] = 10 ** 6
    path = tmp_path / "transcript.jsonl"
    path.write_text("\n".join([json.dumps(doc), *SHORT_RUN[1:]]) + "\n")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"error reading {path}: no log line for miner 4\n"


def test_check_of_a_transcript_without_its_last_log_line_is_a_read_error(tmp_path, capsys):
    rows = [json.loads(ln) for ln in SHORT_RUN]
    del rows[max(k for k, r in enumerate(rows) if r.get("e") == "log")]
    path = tmp_path / "transcript.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"error reading {path}: no log line for miner 3\n"


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(MUTATIONS + STREAM_MUTATIONS), st.integers(0, 10_000),
       st.sampled_from([SHORT_RUN, ASYNC_SHORT_RUN]))
def test_check_on_a_mutated_transcript_never_raises(mutation, k, source):
    """Whichever line a mutation hits, in an eventual-synchrony or an
    asynchronous run, check reads the file and reports, or says why it
    cannot read it; it never ends in a traceback."""
    assume(mutation != "coin-call-miner" or source is ASYNC_SHORT_RUN)
    lines, _ = mutate(mutation, k, source)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "transcript.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", str(path)])
    if code == 2:
        assert err.getvalue().startswith(f"error reading {path}: ")
    else:
        assert code in (0, 1)
        assert json.loads(out.getvalue())["all_passed"] is (code == 0)


def with_inadmissible_create(source, path) -> str:
    """Writes to path the source run (seed 0, n=4) with a create, before the
    first log line, whose block no store admits (a depth-2 block over one
    depth-1 block: not cordial), its id, creator, depth and signature
    consistent; returns the replay error that block makes."""
    rows = [json.loads(ln) for ln in source]
    first = rows[_nth(rows, "create", 0)]
    blk = Keyring(0, 4).sign(make_block(first["c"], b"", [bytes.fromhex(first["id"])]))
    bad = {"e": "create", "t": first["t"], "m": first["m"], "id": block_id(blk).hex(),
           "c": blk.creator, "d": 2, "enc": encode_block(blk).hex(),
           "sig": blk.signature.hex()}
    rows.insert(_nth(rows, "log", 0), bad)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return (f"transcript replay failed for the created blocks: "
            f"{bad['id'][:12]} -> rejected non-cordial")


def test_trace_of_an_inadmissible_create_is_an_error(tmp_path, capsys):
    """A create whose block cannot be replayed is not drawn: trace says why."""
    path = tmp_path / "transcript.jsonl"
    error = with_inadmissible_create(SHORT_RUN, path)
    assert main(["trace", str(path)]) == 2
    assert capsys.readouterr().err == f"error reading {path}: {error}\n"


def test_common_core_of_an_inadmissible_create_fails(tmp_path, capsys):
    """The common-core verifier replays every created block, so under
    asynchrony a create no store admits is its failing verdict."""
    path = tmp_path / "transcript.jsonl"
    error = with_inadmissible_create(ASYNC_SHORT_RUN, path)
    assert main(["check", str(path)]) == 1
    verdicts = {v["name"]: v for v in json.loads(capsys.readouterr().out)
                ["transcripts"][str(path)]}
    assert (verdicts["common-core"]["passed"], verdicts["common-core"]["detail"]) == (
        False, error)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scenario_dict_roundtrip(name):
    doc = GOLDEN[name].to_dict()
    assert Scenario.from_dict(doc).to_dict() == doc


def test_transcript_header_is_a_config(tmp_path):
    """The scenario a transcript header records, given back to `run`,
    reproduces the transcript byte for byte."""
    cfg = write_config(tmp_path, rounds=12, seed=5,
                       delays={"kind": "uniform", "min": 1, "max": 3},
                       adversary={"kind": "corrupt-leader", "lag": 2},
                       byzantine={"2": {"behavior": "equivocate", "rate": 0.5}})
    assert main(["run", cfg]) == 0
    first = (tmp_path / "out" / "transcript.jsonl").read_bytes()
    header = json.loads(first.splitlines()[0])
    again = tmp_path / "again.json"
    again.write_text(json.dumps(header["scenario"]))
    assert main(["run", str(again), "--out", str(tmp_path / "again")]) == 0
    assert (tmp_path / "again" / "transcript.jsonl").read_bytes() == first


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
    """The double-bordered nodes are the blocks with an equivocation
    partner, found by brute force over every pair of created blocks."""
    cfg = write_config(tmp_path, rounds=12, seed=11,
                       delays={"kind": "uniform", "min": 1, "max": 3},
                       byzantine={"0": {"behavior": "equivocate", "rate": 0.7}})
    main(["run", cfg])
    path = tmp_path / "out" / "transcript.jsonl"
    pointers, creators = {}, {}
    for ln in path.read_text().splitlines():
        row = json.loads(ln)
        if row.get("e") == "create":
            blk = decode_block(bytes.fromhex(row["enc"]))
            pointers[row["id"]] = [p.hex() for p in blk.pointers]
            creators[row["id"]] = blk.creator
    want = {a[:12] for a in pointers for b in pointers
            if bf_equivocation(pointers, creators, a, b)}
    out = tmp_path / "dot.gv"
    assert main(["trace", str(path), "--out", str(out)]) == 0
    got = {ln.split()[0][1:] for ln in out.read_text().splitlines()
           if "peripheries=2" in ln}
    assert want and got == want


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
