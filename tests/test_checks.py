"""Checker sensitivity: each verifier must actually catch what it audits."""

from __future__ import annotations

import copy
import gc

from blocklace import checks
from blocklace.simnet import ByzSpec, Scenario, run


def healthy_transcript(model="eventual-synchrony", **kw):
    return run(Scenario(model=model, rounds=kw.pop("rounds", 16), seed=kw.pop("seed", 0), **kw))


def test_all_checks_pass_on_healthy_run():
    t = healthy_transcript()
    assert checks.all_passed(checks.run_all_checks(t))


def test_safety_catches_mutated_log():
    t = healthy_transcript()
    broken = copy.deepcopy(t)
    records = broken.logs[1]["records"]
    records[2]["block"], records[3]["block"] = records[3]["block"], records[2]["block"]
    view = checks.RunView(broken)
    v = checks.check_safety(view)
    assert not v.passed
    assert "position 2" in v.detail


def test_safety_catches_dropped_suffix_plus_extra():
    t = healthy_transcript()
    broken = copy.deepcopy(t)
    rec = broken.logs[2]["records"]
    rec[-1]["block"] = "00" * 32
    v = checks.check_safety(checks.RunView(broken))
    assert not v.passed


def test_liveness_catches_missing_block():
    t = healthy_transcript()
    broken = copy.deepcopy(t)
    broken.logs[0]["records"] = broken.logs[0]["records"][:3]
    v = checks.check_liveness(checks.RunView(broken))
    assert not v.passed


def test_convergence_catches_divergent_store():
    t = healthy_transcript()
    broken = copy.deepcopy(t)
    events = [e for e in broken.events
              if not (e["e"] == "accept" and e["m"] == 2 and e["t"] > 4)]
    broken.events[:] = events
    v = checks.check_convergence(checks.RunView(broken))
    assert not v.passed


def test_ordering_equivalence_catches_reordered_log():
    t = healthy_transcript()
    broken = copy.deepcopy(t)
    for mid in broken.logs:
        rec = broken.logs[mid]["records"]
        rec[0]["block"], rec[1]["block"] = rec[1]["block"], rec[0]["block"]
    v = checks.check_ordering_equivalence(checks.RunView(broken))
    assert not v.passed


def test_model_conformance_catches_unmatched_delivery():
    t = healthy_transcript()
    broken = copy.deepcopy(t)
    broken.events.append({"e": "deliver", "t": 999, "from": 0, "to": 1,
                          "ids": ["ab" * 32]})
    v = checks.check_model_conformance(checks.RunView(broken))
    assert not v.passed


def test_common_core_on_async_run():
    t = healthy_transcript(model="asynchrony", rounds=30)
    v = checks.check_common_core(checks.RunView(t))
    assert v.passed and v.applicable


def test_common_core_not_applicable_cases():
    t = healthy_transcript()
    v = checks.check_common_core(checks.RunView(t))
    assert v.passed and not v.applicable
    short = run(Scenario(model="asynchrony", rounds=4, settle_rounds=0, seed=0))
    v = checks.check_common_core(checks.RunView(short))
    assert v.passed and not v.applicable


def test_common_core_under_reorder_adversary():
    t = run(Scenario(model="asynchrony", rounds=40, seed=3,
                     adversary={"kind": "reorder", "lag": 2}))
    v = checks.check_common_core(checks.RunView(t))
    assert v.passed and v.applicable


def test_equivocator_run_reports_suppressed():
    t = run(Scenario(rounds=24, seed=11,
                     delays={"kind": "uniform", "min": 1, "max": 3},
                     byzantine={0: ByzSpec("equivocate", rate=0.7)}))
    assert checks.all_passed(checks.run_all_checks(t))
    assert any(t.logs[m]["suppressed"] for m in t.logs)


def test_verification_leaves_no_cyclic_garbage():
    """The verifiers' rebuilt stores, and the reference ordering run over
    them, are freed by reference counting alone."""
    t = run(Scenario(model="asynchrony", rounds=16, seed=1,
                     byzantine={3: ByzSpec("crash", round=5)}))
    gc.collect()
    gc.disable()
    try:
        assert checks.all_passed(checks.run_all_checks(t))
        assert gc.collect() == 0
    finally:
        gc.enable()
