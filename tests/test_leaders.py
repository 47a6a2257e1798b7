"""Deterministic round-robin leaders and the simulated shared coin."""

from __future__ import annotations

import math

import pytest

import blocklace
from blocklace.leaders import CoinError, CoinOracle, LeaderSchedule


def test_deterministic_examples():
    sched = LeaderSchedule(4, 2)
    assert sched.leader_at(3) is None
    assert sched.leader_at(2) == 1
    assert sched.leader_at(8) == 0
    assert sched.leader_at(0) is None
    assert all(hasattr(blocklace, name) for name in blocklace.__all__)


def test_deterministic_is_pure():
    a = LeaderSchedule(7, 5)
    b = LeaderSchedule(7, 5)
    assert [a.leader_at(d) for d in range(0, 40)] == [b.leader_at(d) for d in range(0, 40)]


def test_coin_pending_until_quorum_of_callers():
    oracle = CoinOracle(seed=9, n=4, f=1, stride=5)
    assert oracle.request(0, 5) is None  # first of f+1 callers
    assert not oracle.is_revealed(5)
    v = oracle.request(1, 5)
    assert v is not None
    assert oracle.is_revealed(5)
    # Agreement and idempotence: everyone sees the same value forever.
    assert oracle.request(2, 5) == v
    assert oracle.request(0, 5) == v
    assert oracle.revealed_value(5) == v


def test_repeat_calls_by_one_miner_do_not_reveal():
    oracle = CoinOracle(seed=9, n=4, f=1, stride=5)
    for _ in range(5):
        assert oracle.request(3, 10) is None
    assert not oracle.is_revealed(10)


def test_non_leader_round_rejected():
    oracle = CoinOracle(seed=9, n=4, f=1, stride=5)
    with pytest.raises(CoinError):
        oracle.request(0, 7)


def test_schedule_respects_reveal_gating():
    oracle = CoinOracle(seed=3, n=4, f=1, stride=5)
    sched = LeaderSchedule(4, 5, oracle.revealed_value)
    assert sched.leader_at(5) is None
    oracle.request(0, 5)
    oracle.request(1, 5)
    assert sched.leader_at(5) == oracle.value(5)
    assert sched.leader_at(6) is None


def test_coin_fairness_chi_square():
    """Per-miner frequency within 3 sigma of 1/n over 10^4 rounds."""
    n = 4
    draws = 10_000
    oracle = CoinOracle(seed=77, n=n, f=1, stride=5)
    counts = [0] * n
    for k in range(draws):
        counts[oracle.value(5 * (k + 1))] += 1
    expect = draws / n
    sigma = math.sqrt(draws * (1 / n) * (1 - 1 / n))
    for c in counts:
        assert abs(c - expect) <= 3 * sigma, counts


def test_identical_seed_and_order_reproduce_reveals():
    def drive():
        oracle = CoinOracle(seed=5, n=4, f=1, stride=5)
        for r in (5, 10, 15):
            for p in (2, 0, 3):
                oracle.request(p, r)
        return list(oracle.reveal_log)

    assert drive() == drive()


def test_adversary_peek_guard():
    oracle = CoinOracle(seed=5, n=4, f=1, stride=5)
    assert oracle.adversary_peek_guard(5) is False
    oracle.request(0, 5)
    oracle.request(1, 5)
    assert oracle.adversary_peek_guard(5) is True
    assert oracle.peek_log == [(5, False), (5, True)]


def test_revealed_schedule_matches_oracle_values():
    oracle = CoinOracle(seed=21, n=7, f=2, stride=5)
    offline = LeaderSchedule(7, 5, CoinOracle(seed=21, n=7, f=2, stride=5).value)
    for r in range(5, 60, 5):
        assert offline.leader_at(r) == oracle.value(r)
    assert offline.leader_at(7) is None
