"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
stream; tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import random
import statistics
import time

import blocklace as bl
from blocklace import checks
from blocklace.leaders import CoinOracle, LeaderSchedule
from blocklace.ordering import (
    ASYNC_PARAMS,
    ES_PARAMS,
    DeliveryLog,
    extend_delivery,
    leader_blocks_at,
    reference_order,
)
from blocklace.simnet import ByzSpec, Scenario, run

from conftest import fresh_store, grow_random
from helpers_oracle import (
    approval_creators,
    bf_approval_creators,
    blocks_by,
    graph_of,
    is_super_ratified,
)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_es_good_case_latency():
    """n=4, f=1, fault-free, zero delay, >= 20 leader rounds: every leader
    decides and commit latency is exactly 3 rounds."""
    t0 = time.time()
    t = run(Scenario(rounds=40, seed=0, delays={"kind": "zero"}))
    wall = time.time() - t0
    ok = (t.metrics["decided_rounds"] == list(range(2, 41, 2))
          and t.metrics["commit_latencies"] == [3] * 20
          and wall < 5.0)
    report(1, ok, f"20 leader rounds, latencies all 3, {wall:.2f}s")


def test_criterion_02_async_good_case_latency():
    """n=4, f=1, benign delays: every decided wave commits in exactly 6."""
    t0 = time.time()
    t = run(Scenario(model="asynchrony", rounds=60, seed=0,
                     delays={"kind": "fixed", "ticks": 1}))
    wall = time.time() - t0
    lats = t.metrics["commit_latencies"]
    ok = (t.metrics["decided_rounds"] == list(range(5, 61, 5))
          and lats == [6] * 12 and wall < 10.0)
    report(2, ok, f"12 waves decided, latencies all 6, {wall:.2f}s")


def test_criterion_03_es_expected_case():
    """One rotating Byzantine leader slot over >= 200 seeds: mean commit
    latency within 4.5 +/- 0.7 rounds."""
    t0 = time.time()
    lats: list[int] = []
    for seed in range(200):
        sc = Scenario(rounds=60, seed=seed,
                      adversary={"kind": "corrupt-leader", "miner": seed % 4, "lag": 2})
        lats.extend(run(sc).metrics["commit_latencies"])
    wall = time.time() - t0
    mean = statistics.fmean(lats)
    ok = abs(mean - 4.5) <= 0.7 and wall < 120.0
    report(3, ok, f"mean {mean:.3f} over {len(lats)} decisions, {wall:.1f}s")


def test_criterion_04_async_expected_case():
    """Coin-blind worst-case reorder adversary over >= 200 seeds: mean
    commit latency within 9 +/- 1.4 rounds."""
    t0 = time.time()
    lats: list[int] = []
    for seed in range(200):
        sc = Scenario(model="asynchrony", rounds=120, seed=seed,
                      adversary={"kind": "reorder", "lag": 2})
        lats.extend(run(sc).metrics["commit_latencies"])
    wall = time.time() - t0
    mean = statistics.fmean(lats)
    ok = abs(mean - 9.0) <= 1.4 and wall < 300.0
    report(4, ok, f"mean {mean:.3f} over {len(lats)} decisions, {wall:.1f}s")


def _random_scenarios(count: int):
    for trial in range(count):
        rng = random.Random(9000 + trial)
        n, f = rng.choice([(4, 1), (4, 1), (7, 2)])
        model = rng.choice(["eventual-synchrony", "asynchrony"])
        byz = {}
        for mid in rng.sample(range(n), rng.randint(0, f)):
            kind = rng.choice(["equivocate", "crash", "silent"])
            byz[mid] = ByzSpec(kind, rate=rng.uniform(0.2, 0.8),
                               round=rng.randint(2, 10))
        delays = rng.choice([{"kind": "fixed", "ticks": 1},
                             {"kind": "uniform", "min": 1, "max": 2},
                             {"kind": "uniform", "min": 1, "max": 3}])
        rounds = 16 if model == "eventual-synchrony" else 25
        yield Scenario(n=n, f=f, model=model, rounds=rounds, seed=trial,
                       delays=delays, byzantine=byz)


_SWEEP_CACHE: dict = {}


def _run_randomized_sweep():
    if _SWEEP_CACHE:
        return _SWEEP_CACHE
    t0 = time.time()
    safety = liveness = convergence = 0
    details = []
    count = 1000
    for sc in _random_scenarios(count):
        view = checks.RunView(run(sc))
        v_s = checks.check_safety(view)
        v_l = checks.check_liveness(view)
        v_c = checks.check_convergence(view)
        safety += v_s.passed
        liveness += v_l.passed
        convergence += v_c.passed
        if not (v_s.passed and v_l.passed and v_c.passed):
            details.append((sc.seed, v_s.detail, v_l.detail, v_c.detail))
    _SWEEP_CACHE.update({
        "count": count, "safety": safety, "liveness": liveness,
        "convergence": convergence, "details": details[:3],
        "wall": time.time() - t0,
    })
    return _SWEEP_CACHE


def test_criterion_05_safety_suite():
    """>= 1000 randomized runs across models with up to f equivocators or
    crashers: zero prefix-consistency violations."""
    r = _run_randomized_sweep()
    ok = r["safety"] == r["count"]
    report(5, ok, f"{r['safety']}/{r['count']} runs prefix-consistent, "
                  f"{r['wall']:.1f}s {r['details'] if not ok else ''}")


def test_criterion_06_order_monotone_and_oracle_equal():
    """>= 1000 randomly grown blocklaces (n in {4,7}), nested snapshots:
    reference output prefix-monotone and equal to cumulative incremental
    delivery everywhere."""
    t0 = time.time()
    cases = bad = 0
    for seed in range(250):
        for n, f in ((4, 1), (7, 2)):
            for params in (ES_PARAMS, ASYNC_PARAMS):
                cases += 1
                if params.model == "eventual-synchrony":
                    sched = LeaderSchedule(n, params.leader_stride)
                else:
                    sched = LeaderSchedule(n, params.leader_stride,
                                           CoinOracle(seed, n, f, params.leader_stride).value)
                store, keyring = fresh_store(n=n, f=f, seed=seed)
                rng = random.Random(seed * 7 + n)
                log = DeliveryLog()
                state = {"prev": [], "ok": True}

                def snap(_d):
                    extend_delivery(store, log, sched, params)
                    seq, sup = reference_order(store, sched, params)
                    if (log.delivered != seq or log.suppressed != sup
                            or seq[:len(state["prev"])] != state["prev"]):
                        state["ok"] = False
                    state["prev"] = seq

                eq = {n - 1: 0.5} if seed % 3 == 0 else {}
                grow_random(store, keyring, rng, rounds=10,
                            equivocators=eq, on_round=snap)
                bad += not state["ok"]
    wall = time.time() - t0
    report(6, bad == 0, f"{cases - bad}/{cases} lattices monotone and "
                        f"oracle-equal, {wall:.1f}s")


def test_criterion_07_no_supermajority_for_both_halves():
    """>= 1000 generated blocklaces with injected equivocations (<= f
    equivocators): never do both halves reach 2f+1 distinct-creator
    approval."""
    t0 = time.time()
    cases = violations = pairs = 0
    for seed in range(500):
        for n, f in ((4, 1), (7, 2)):
            cases += 1
            store, keyring = fresh_store(n=n, f=f, seed=seed)
            rng = random.Random(31337 + seed * 3 + n)
            eq = {n - 1: 0.6}
            if f >= 2 and seed % 2 == 0:
                eq[n - 2] = 0.4
            grow_random(store, keyring, rng, rounds=7, equivocators=eq)
            use_oracle = cases % 25 == 0
            pmap = creators = None
            if use_oracle:
                pmap, creators = graph_of(store)
            for q in eq:
                halves = blocks_by(store, q)
                for i, a in enumerate(halves):
                    for b in halves[i + 1:]:
                        if not store.is_equivocation(a, b):
                            continue
                        pairs += 1
                        ca = approval_creators(store, a)
                        cb = approval_creators(store, b)
                        if len(ca) >= store.quorum and len(cb) >= store.quorum:
                            violations += 1
                        if use_oracle:
                            assert ca == bf_approval_creators(pmap, creators, a)
                            assert cb == bf_approval_creators(pmap, creators, b)
    wall = time.time() - t0
    report(7, violations == 0,
           f"{pairs} equivocation pairs over {cases} blocklaces, "
           f"{violations} double supermajorities, {wall:.1f}s")


def test_criterion_08_super_ratification_finality():
    """Every super-ratified leader is ratified by every deeper cordial
    leader block, across fixtures covering both finality cases: the leader
    of the ratifying round itself and strictly deeper leaders."""
    t0 = time.time()
    coverage = {"at-beta": 0, "deeper": 0}
    bad = 0
    for seed in range(150):
        for n, f in ((4, 1), (7, 2)):
            for params in (ES_PARAMS, ASYNC_PARAMS):
                if params.model == "eventual-synchrony":
                    sched = LeaderSchedule(n, params.leader_stride)
                else:
                    sched = LeaderSchedule(n, params.leader_stride,
                                           CoinOracle(seed, n, f, params.leader_stride).value)
                store, keyring = fresh_store(n=n, f=f, seed=seed)
                rng = random.Random(seed * 11 + n + params.beta)
                eq = {n - 1: 0.4} if seed % 4 == 0 else {}
                grow_random(store, keyring, rng, rounds=12, equivocators=eq)
                stride = params.leader_stride
                anchors = []
                for r in range(stride, store.max_depth() + 1, stride):
                    for cand in leader_blocks_at(store, sched, r):
                        if is_super_ratified(store, sched, params, cand):
                            anchors.append((r, cand))
                for r, cand in anchors:
                    for r2 in range(r + stride, store.max_depth() + 1, stride):
                        gap = r2 - r
                        # Case A covers the leader block of the ratifying
                        # round itself, which the decision rule places inside
                        # the ratifying supermajority; that argument needs a
                        # non-equivocating leader there and applies to
                        # eventual synchrony only. Case B covers any strictly
                        # deeper leader block, equivocating or not.
                        if gap == params.beta and params.alpha != 1:
                            continue
                        kind = "at-beta" if gap == params.beta else "deeper"
                        for deeper in leader_blocks_at(store, sched, r2):
                            if (kind == "at-beta"
                                    and store.is_faulty(store.creator_of(deeper))):
                                continue
                            coverage[kind] += 1
                            if not store.ratifies(cand, deeper, params.alpha):
                                bad += 1
    wall = time.time() - t0
    ok = bad == 0 and all(v > 50 for v in coverage.values())
    report(8, ok, f"coverage {coverage}, {bad} unratified pairs, {wall:.1f}s")


def test_criterion_09_dissemination_and_liveness():
    """Every fair run at quiescence: identical accepted sets inside the
    horizon and every early correct-miner block delivered by all."""
    r = _run_randomized_sweep()
    ok = r["liveness"] == r["count"] and r["convergence"] == r["count"]
    report(9, ok, f"liveness {r['liveness']}/{r['count']}, "
                  f"convergence {r['convergence']}/{r['count']}"
                  f"{' ' + str(r['details']) if not ok else ''}")


def test_criterion_10_amortized_linear_evidence():
    """Sweep n in {4,7,10} with batch = n payloads per block: bytes sent
    per committed payload delivery varies by < 2x across n."""
    t0 = time.time()
    per_delivery = {}
    per_unique = {}
    for n in (4, 7, 10):
        sc = Scenario(n=n, f=(n - 1) // 3, rounds=30, seed=0, batch=n,
                      payload_size=64)
        m = run(sc).metrics
        per_delivery[n] = m["bytes_per_delivery"]
        per_unique[n] = m["bytes_per_unique_payload"]
    spread = max(per_delivery.values()) / min(per_delivery.values())
    wall = time.time() - t0
    report(10, spread < 2.0,
           f"bytes/delivery {per_delivery} spread {spread:.2f}x "
           f"(bytes/unique-payload {per_unique}), {wall:.1f}s")


def test_criterion_11_determinism():
    """Replaying any scenario yields byte-identical transcripts."""
    scenarios = [
        Scenario(rounds=20, seed=5),
        Scenario(model="asynchrony", rounds=30, seed=5,
                 delays={"kind": "uniform", "min": 1, "max": 3},
                 adversary={"kind": "reorder", "lag": 2}),
        Scenario(rounds=20, seed=6, delays={"kind": "uniform", "min": 1, "max": 3},
                 byzantine={3: ByzSpec("equivocate", rate=0.5)}),
    ]
    ok = True
    for sc in scenarios:
        import copy
        a = run(copy.deepcopy(sc)).jsonl()
        b = run(copy.deepcopy(sc)).jsonl()
        ok = ok and a == b
    report(11, ok, f"{len(scenarios)} scenarios replayed byte-identically")
