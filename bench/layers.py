"""The traced run's view of the library: which callables are wrapped, which
counters are read from their results, and the per-layer metrics derived
from the spans.

Every figure counts only the simulation phase, except ``checks.*`` (the
verification phase, inclusive time) and ``ordering.reference_order``, the
ordering oracle, which only the verifiers call.
"""

from __future__ import annotations

SIM = "phase.sim"
CHECK = "phase.check"

# Per-layer metric name -> unit, in the order they are reported.
UNITS = {
    "blocks.block_id.calls": "count",
    "blocks.block_id.self_s": "s",
    "blocks.verify.self_s": "s",
    "blocks.encode_package.self_s": "s",
    "store.insert.calls": "count",
    "store.insert.self_s": "s",
    "store.insert.useful_ratio": "ratio",
    "store.insert.buffered": "count",
    "store.insert.duplicate": "count",
    "store.insert.rejected": "count",
    "store.insert.cascaded": "count",
    "store.buffer_peak": "blocks",
    "store.create_block.self_s": "s",
    "store.tips.self_s": "s",
    "store.blocks_prefix.self_s": "s",
    "store.is_faulty.calls": "count",
    "store.is_faulty.self_s": "s",
    "store.cordial_round.self_s": "s",
    "store.approves.calls": "count",
    "store.ratifies.calls": "count",
    "store.ratifies.self_s": "s",
    "ordering.extend_delivery.calls": "count",
    "ordering.extend_delivery.self_s": "s",
    "ordering.extend_delivery.useful_ratio": "ratio",
    "ordering.super_ratified_leader.self_s": "s",
    "ordering.prev_ratified_leader.self_s": "s",
    "ordering.reference_order.self_s": "s",
    "miner.step.self_s": "s",
    "miner.on_receive.self_s": "s",
    "miner.package_for.self_s": "s",
    "miner.package_for.blocks_per_package": "blocks",
    "miner.flush_package.calls": "count",
    "simnet.run.self_s": "s",
    "simnet.send.calls": "count",
    "simnet.send.self_s": "s",
    "checks.run_view.total_s": "s",
    "checks.check_ordering_equivalence.total_s": "s",
    "checks.check_common_core.total_s": "s",
    "checks.check_model_conformance.total_s": "s",
    "trace.overhead_pct": "%",
}

STORE_METHODS = ("create_block", "tips", "blocks_prefix", "is_faulty",
                 "cordial_round", "approves", "ratifies")


def install(tracer, bl) -> None:
    """Wrap the library's public callables; ``bl`` is the imported package
    with its ``checks`` submodule loaded."""
    blocks, store, ordering, miner, simnet, checks = (
        bl.blocks, bl.store, bl.ordering, bl.miner, bl.simnet, bl.checks)

    tracer.wrap_function(blocks.block_id, "blocks.block_id", "blocklace")
    tracer.wrap_method(blocks.Keyring, "verify", "blocks.verify")
    tracer.wrap_function(blocks.encode_package, "blocks.encode_package", "blocklace")

    def insert_pre(st, block):
        return len(st.buffer)

    def insert_post(buffer_before, res, st, block):
        tracer.count("store.insert.newly", len(res.newly_accepted))
        tracer.count("store.insert.cascaded", max(0, len(res.newly_accepted) - 1))
        if res.status == "rejected":
            tracer.count("store.insert.rejected")
        elif res.status == "buffered" and len(st.buffer) > buffer_before:
            tracer.count("store.insert.buffered")
        elif not res.newly_accepted:
            tracer.count("store.insert.duplicate")
        tracer.peak("store.buffer_peak", len(st.buffer))

    tracer.wrap_method(store.BlockStore, "insert", "store.insert", insert_pre, insert_post)
    for attr in STORE_METHODS:
        tracer.wrap_method(store.BlockStore, attr, f"store.{attr}")

    def delivery_post(_, new, *args):
        tracer.count("ordering.extend_delivery.useful", bool(new))

    tracer.wrap_function(ordering.extend_delivery, "ordering.extend_delivery", "blocklace",
                         post=delivery_post)
    for func in (ordering.super_ratified_leader, ordering.prev_ratified_leader,
                 ordering.reference_order):
        tracer.wrap_function(func, f"ordering.{func.__name__}", "blocklace")

    def package_post(_, pkg, *args):
        tracer.count("miner.package_for.blocks", len(pkg.blocks))

    for attr in ("step", "on_receive", "flush_package"):
        tracer.wrap_method(miner.MinerState, attr, f"miner.{attr}")
    tracer.wrap_method(miner.MinerState, "package_for", "miner.package_for", post=package_post)

    tracer.wrap_method(simnet.Simulation, "run", "simnet.run")
    tracer.wrap_method(simnet.Simulation, "send", "simnet.send")

    tracer.wrap_method(checks.RunView, "__init__", "checks.run_view")
    for func in (checks.check_ordering_equivalence, checks.check_common_core,
                 checks.check_model_conformance):
        tracer.wrap_function(func, f"checks.{func.__name__}", "blocklace")


def metrics(tracer, overhead_pct: float) -> dict[str, float]:
    """Every per-layer metric, from the spans and counters of a traced round."""
    spans = tracer.summary()
    counters = tracer.counters

    def span(name, field, phase=SIM):
        return spans.get((phase, name), {}).get(field, 0)

    def per_call(counter, name):
        calls = span(name, "calls")
        return counters[(SIM, counter)] / calls if calls else 0.0

    out = {}
    for metric in UNITS:
        name, _, field = metric.rpartition(".")
        if field in ("calls", "self_s"):
            phase = CHECK if name == "ordering.reference_order" else SIM
            out[metric] = span(name, field, phase)
        elif field == "total_s":
            out[metric] = span(name, field, CHECK)
    out["store.insert.useful_ratio"] = per_call("store.insert.newly", "store.insert")
    for outcome in ("buffered", "duplicate", "rejected", "cascaded"):
        out[f"store.insert.{outcome}"] = counters[(SIM, f"store.insert.{outcome}")]
    out["store.buffer_peak"] = counters[(SIM, "store.buffer_peak")]
    out["ordering.extend_delivery.useful_ratio"] = per_call(
        "ordering.extend_delivery.useful", "ordering.extend_delivery")
    out["miner.package_for.blocks_per_package"] = per_call(
        "miner.package_for.blocks", "miner.package_for")
    out["trace.overhead_pct"] = overhead_pct
    return {m: out[m] for m in UNITS}
