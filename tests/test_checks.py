"""Checker sensitivity: each verifier must actually catch what it audits."""

from __future__ import annotations

import copy
import functools
import gc
import random
import sys
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from blocklace import blocks, checks
from blocklace.blocks import block_id, make_block
from blocklace.ordering import ASYNC_PARAMS, MODEL_ASYNC
from blocklace.simnet import ByzSpec, Scenario, load_transcript, run
from blocklace.store import BlockStore
from conftest import fresh_store, grow_random
from helpers_oracle import (
    bf_common_core,
    bf_ordering_equivalence,
    bf_parents_first,
    graph_of,
)


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


def test_safety_names_a_tampered_middle_miner():
    """Miner 3 delivers the most; miner 2, neither first nor longest, is
    reported against it at the position where it diverges."""
    view = checks.RunView(healthy_transcript())
    for mid in (0, 1, 2):
        view.delivered[mid] = view.delivered[mid][:-2]
    rec = view.delivered[2]
    rec[2], rec[3] = rec[3], rec[2]
    v = checks.check_safety(view)
    assert not v.passed
    assert v.detail == "miners 2 and 3 diverge at position 2"


def test_safety_locates_no_divergence_on_a_converged_run(monkeypatch):
    """Each list is compared with the longest; a position is searched for
    only on a mismatch."""
    original, calls = checks.prefix_divergence, []
    monkeypatch.setattr(checks, "prefix_divergence",
                        lambda a, b: calls.append((a, b)) or original(a, b))
    assert checks.check_safety(checks.RunView(healthy_transcript())).passed
    assert calls == []


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


def shared_set_view():
    """A healthy run whose correct miners all end on one accepted set, so
    every miner after the first is checked against that set's cached order."""
    view = checks.RunView(healthy_transcript())
    assert len({frozenset(view.accepts[m]) for m in view.correct}) == 1
    return view, view.correct[-1]


def test_ordering_equivalence_checks_last_miner_delivery():
    view, last = shared_set_view()
    rec = view.delivered[last]
    rec[2], rec[3] = rec[3], rec[2]
    v = checks.check_ordering_equivalence(view)
    assert not v.passed
    assert v.detail.startswith(f"miner {last}: incremental/reference mismatch at 2")


def test_ordering_equivalence_checks_last_miner_suppressed_set():
    view, last = shared_set_view()
    view.suppressed[last].append(view.delivered[last][0])
    v = checks.check_ordering_equivalence(view)
    assert not v.passed
    assert v.detail == f"miner {last}: suppressed-set mismatch"


def test_ordering_equivalence_checks_last_miner_accept_order():
    view, last = shared_set_view()
    acc = view.accepts[last]
    acc.insert(0, acc.pop())  # the deepest block now precedes its pointees
    v = checks.check_ordering_equivalence(view)
    assert not v.passed
    assert v.detail == (f"transcript replay failed for miner {last}: "
                        f"{acc[0][:12]} -> buffered None")


def oracle_verdict(view):
    try:
        return bf_ordering_equivalence(view)
    except ValueError as exc:
        return checks.Verdict("ordering-equivalence", False, str(exc))


def tampered_views(view):
    """The view itself plus copies with one miner's accept order, accepted
    set, delivered list or suppressed set changed."""
    first, mid, last = view.correct[0], view.correct[1], view.correct[-1]

    def variant(field, miner, value):
        out = copy.copy(view)
        setattr(out, field, {**getattr(view, field), miner: value})
        return out

    acc, got = view.accepts[mid], view.delivered[last]
    yield view
    yield variant("accepts", first, view.accepts[first][:-1])
    yield variant("accepts", mid, sorted(acc, key=lambda h: (view.block_depth[h], h[::-1])))
    yield variant("accepts", mid, acc[-1:] + acc[:-1])  # deepest block first
    yield variant("accepts", last, view.accepts[last][:-1])
    if len(got) >= 2:
        yield variant("delivered", last, [got[1], got[0], *got[2:]])
    yield variant("delivered", mid, view.delivered[mid][:-1])
    yield variant("suppressed", last, [*view.suppressed[last], acc[0]])


def oracle_scenarios():
    behaviors = ("crash", "silent", "equivocate")
    for k in range(30):
        n, f = (4, 1) if k % 2 == 0 else (7, 2)
        asynchrony = k % 4 >= 2
        byzantine = {(k + 3 * j) % n: ByzSpec(behaviors[(k // 4 + j) % 3], rate=0.5,
                                            round=3 + k % 4)
                     for j in range(f if k % 3 else 0)}
        yield Scenario(n=n, f=f, seed=k, byzantine=byzantine,
                       model="asynchrony" if asynchrony else "eventual-synchrony",
                       rounds=15 if asynchrony else 12,
                       delays={"kind": "uniform", "min": 1, "max": 3},
                       adversary={"kind": "reorder", "lag": 2} if asynchrony
                       else {"kind": "corrupt-leader"})


@pytest.mark.parametrize("sc", list(oracle_scenarios()), ids=lambda sc: f"seed{sc.seed}")
def test_ordering_equivalence_matches_per_miner_oracle(sc):
    """One replay per distinct accepted set gives the verdict that one
    replay per correct miner gives, replay failures included."""
    view = checks.RunView(run(sc))
    for tampered in tampered_views(view):
        assert checks.check_ordering_equivalence(tampered) == oracle_verdict(tampered)


@functools.cache
def replayed_view(n: int, equivocator: bool) -> checks.RunView:
    """A short run at n with every correct miner's accepted set replayed
    once, so any later order of the same set takes the cached path."""
    f = (n - 1) // 3
    byzantine = {n - 1: ByzSpec("equivocate", rate=1.0)} if equivocator else {}
    view = checks.RunView(run(Scenario(n=n, f=f, rounds=8, seed=n, byzantine=byzantine,
                                       delays={"kind": "uniform", "min": 1, "max": 3})))
    for mid in view.correct:
        view.replay(mid)
    return view


def outcome(call) -> str | None:
    try:
        call()
    except checks.ReplayError as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([4, 7]), st.booleans(), st.integers(0, 6),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)), max_size=3))
def test_cached_replay_matches_the_parents_first_oracle(n, equivocator, pick, moves):
    """On an already-replayed set, the closure-mask check of the accept order
    fails exactly where the set-based loop it replaced does, on the miner's
    own order and on orders with blocks moved earlier, some before a pointee."""
    view = replayed_view(n, equivocator)
    mid = view.correct[pick % len(view.correct)]
    order = list(view.accepts[mid])
    for j, p in moves:
        j %= len(order)
        order.insert(p % (j + 1), order.pop(j))
    tampered = copy.copy(view)
    tampered.accepts = {**view.accepts, mid: order}
    assert frozenset(order) in view._stores
    want = outcome(lambda: bf_parents_first(view, order, f"miner {mid}"))
    event("refused" if want else "parents first")
    assert outcome(lambda: tampered.replay(mid)) == want


def test_coin_blindness_counts_distinct_callers_before_each_reveal():
    t = healthy_transcript(model="asynchrony", rounds=20, seed=3,
                           adversary={"kind": "reorder", "lag": 2})
    v = checks.check_coin_blindness(checks.RunView(t))
    assert v.passed and v.applicable
    f = t.scenario.f
    for reveal in [e for e in t.events if e["e"] == "coin-reveal"]:
        broken = copy.deepcopy(t)
        at = broken.events.index(reveal)
        callers = []
        for j, e in enumerate(broken.events[:at]):
            if e["e"] == "coin-call" and e["r"] == reveal["r"] and e["m"] not in callers:
                callers.append(e["m"])
                last = j
        assert len(callers) == f + 1  # the (f+1)-th call is the one that reveals
        broken.events.insert(last, broken.events.pop(at))  # reveal after f calls
        v = checks.check_coin_blindness(checks.RunView(broken))
        assert not v.passed
        assert v.detail == f"round {reveal['r']} revealed after {f} of {f + 1} coin calls"


def test_model_conformance_catches_unmatched_delivery():
    t = healthy_transcript()
    broken = copy.deepcopy(t)
    broken.events.append({"e": "deliver", "t": 999, "from": 0, "to": 1,
                          "ids": ["ab" * 32]})
    v = checks.check_model_conformance(checks.RunView(broken))
    assert not v.passed


def test_model_conformance_catches_delivery_before_its_send():
    t = run(Scenario(rounds=4, seed=0))
    next(e for e in t.events if e["e"] == "deliver")["t"] = -5
    v = checks.check_model_conformance(checks.RunView(t))
    assert not v.passed
    assert v.detail.startswith("delivery at -5 before its send at ")


def test_model_conformance_matches_repeated_sends_first_in_first_out():
    """A package sent twice to one peer is matched to its deliveries in send
    order: the first delivery, before the second send, takes the first send.
    A second send that is never delivered is counted."""
    t = run(Scenario(rounds=4, seed=0))
    send = next(e for e in t.events if e["e"] == "send")
    deliver = next(e for e in t.events if e["e"] == "deliver" and
                   (e["from"], e["to"], e["ids"]) == (send["from"], send["to"], send["ids"]))
    end, events = t.events[-1]["t"], t.events
    delivered = sum(e["e"] == "deliver" for e in events)
    again = [{**send, "t": end + 1}, {**deliver, "t": end + 2}]
    t.events = events + again
    v = checks.check_model_conformance(checks.RunView(t))
    assert (v.passed, v.detail) == (True, f"{delivered + 1} deliveries matched")
    t.events = events + again[:1]
    v = checks.check_model_conformance(checks.RunView(t))
    assert (v.passed, v.detail) == (False, "1 sends never delivered")


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


def split_view(n, f):
    """An unkeyed store at n miners: a full lattice up to round 6, then two
    sides that never see each other. From round 7 (r+α of leader round 5)
    to round 10 (its r+β), one side's blocks are by the first quorum of
    creators and the other's by the last quorum, each block pointing at its
    own side's round below; the creators in both fork, one block per side.
    The store allows more than f equivocators. Returns a view of it for
    `check_common_core`, with the blocks at rounds 7 and 10."""
    store = BlockStore(n, f)
    q = store.quorum

    def add(creator, payload, pointers):
        blk = make_block(creator, payload, pointers)
        assert store.insert(blk).status == "accepted"
        return block_id(blk)

    row = []
    for d in range(1, 7):
        row = [add(p, f"{p}.{d}".encode(), row) for p in range(n)]
    sides = [(range(q), row), (range(n - q, n), row)]
    for d in range(7, 11):
        sides = [(who, [add(p, f"{p}.{d}.{who[0]}".encode(), below) for p in who])
                 for who, below in sides]
    view = SimpleNamespace(scenario=SimpleNamespace(model=MODEL_ASYNC, rounds=10),
                           params=ASYNC_PARAMS, replay=lambda mid: store)
    return view, store.blocks_at(7), store.blocks_at(10)


def test_common_core_fails_on_two_sides_at_n7():
    """Each side alone is a weak core: its 5 creators at round 10 all
    acknowledge its 5 creators at round 7. But no block at round 7 is
    acknowledged by every block at round 10, so the check fails, naming
    the round, the shared acknowledgements against the quorum, and the
    blocks at r+β."""
    view, shallow, deep = split_view(7, 2)
    assert (len(shallow), len(deep)) == (10, 10)
    v = checks.check_common_core(view)
    assert not v.passed and v.applicable
    assert v.detail == ("round 5: the 10 blocks at round 10, by 7 creators, all "
                        "acknowledge blocks by 0 creators at round 7; quorum 5")
    pointers, creators = graph_of(view.replay(None))
    assert bf_common_core(pointers, creators, 5, ASYNC_PARAMS, 5)


def test_common_core_fails_at_n31_within_counted_store_reads(monkeypatch):
    """At n=31 a search over quorum-sized sets of creators would try
    C(31, 21) of them. The check makes one store read per block at r+β and
    r+α, plus a few per round: counted here, with no timer. A read made
    inside another, such as its id lookup, is part of that read."""
    view, shallow, deep = split_view(31, 10)
    reads, inside = [], [0]

    def counted(name, fn):
        def read(self, *args):
            if not inside[0]:
                reads.append(name)
            inside[0] += 1
            try:
                return fn(self, *args)
            finally:
                inside[0] -= 1
        return read

    for name, fn in list(vars(BlockStore).items()):
        if callable(fn) and not name.startswith("_"):
            monkeypatch.setattr(BlockStore, name, counted(name, fn))
    v = checks.check_common_core(view)
    assert not v.passed
    assert v.detail == ("round 5: the 42 blocks at round 10, by 31 creators, all "
                        "acknowledge blocks by 0 creators at round 7; quorum 21")
    assert reads.count("closure_mask") == len(deep)
    assert len(reads) <= len(deep) + len(shallow) + 6, sorted(set(reads))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(4, 1), (7, 2)]), st.integers(11, 16), st.integers(0, 2 ** 32),
       st.floats(0, 1), st.floats(0, 0.5))
def test_strong_common_core_implies_the_exhaustive_one(nf, rounds, seed, forks, skips):
    """On random blocklaces with f equivocators and f skippers, every
    leader round whose strong core the verifier finds has a weak core that
    the exhaustive oracle finds; the events record how often they differ."""
    n, f = nf
    store, keyring = fresh_store(n, f)
    rng = random.Random(seed)
    grow_random(store, keyring, rng, rounds, equivocators=dict.fromkeys(range(f), forks),
                skippers=dict.fromkeys(range(n - f, n), skips))
    pointers, creators = graph_of(store)
    for r in range(5, rounds - ASYNC_PARAMS.beta + 1, ASYNC_PARAMS.leader_stride):
        _, deep_creators, core = checks._common_core_at(store, ASYNC_PARAMS, r)
        strong = min(deep_creators, core) >= store.quorum
        weak = bf_common_core(pointers, creators, r, ASYNC_PARAMS, store.quorum)
        event(f"n={n} strong={strong} exhaustive={weak}")
        assert weak or not strong


def test_equivocator_run_reports_suppressed():
    t = run(Scenario(rounds=24, seed=11,
                     delays={"kind": "uniform", "min": 1, "max": 3},
                     byzantine={0: ByzSpec("equivocate", rate=0.7)}))
    assert checks.all_passed(checks.run_all_checks(t))
    assert any(t.logs[m]["suppressed"] for m in t.logs)


def test_each_create_is_decoded_once(monkeypatch):
    """A view of an in-process run decodes no block; reading a transcript
    file and checking it decodes each create line once."""
    t = healthy_transcript()
    real, calls = blocks.decode_block, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("blocklace") and \
                getattr(module, "decode_block", None) is real:
            monkeypatch.setattr(module, "decode_block", counting)
    checks.RunView(t)
    assert calls == []
    assert checks.all_passed(checks.run_all_checks(load_transcript(t.jsonl())))
    assert len(calls) == sum(e["e"] == "create" for e in t.events)


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
