"""Run/sweep configuration: a JSON document mirroring Scenario plus output
paths and sweep axes."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .simnet import ByzSpec, Scenario, ScenarioError

SCENARIO_KEYS = {
    "n", "f", "model", "seed", "rounds", "settle_rounds", "delta", "gst",
    "delay_bound", "delays", "adversary", "byzantine", "batch", "payload_size",
}
TOP_KEYS = SCENARIO_KEYS | {"out_dir", "sweep"}
SWEEP_KEYS = {"n", "model", "seeds", "seed_count", "adversary", "batch"}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    scenario: Scenario
    out_dir: str
    sweep: dict


def _scenario_from(doc: dict, path: str) -> Scenario:
    byz = {}
    for key, spec in doc.get("byzantine", {}).items():
        try:
            mid = int(key)
        except ValueError:
            raise ConfigError(f"{path}: byzantine key {key!r} is not a miner index")
        if not isinstance(spec, dict) or "behavior" not in spec:
            raise ConfigError(f"{path}: byzantine[{key}] needs a behavior")
        byz[mid] = ByzSpec(behavior=spec["behavior"],
                           rate=float(spec.get("rate", 0.0)),
                           round=int(spec.get("round", 0)))
    n = int(doc.get("n", 4))
    scenario = Scenario(
        n=n,
        f=int(doc.get("f", (n - 1) // 3)),
        model=doc.get("model", "eventual-synchrony"),
        seed=int(doc.get("seed", 0)),
        rounds=int(doc.get("rounds", 30)),
        settle_rounds=doc.get("settle_rounds"),
        delta=int(doc.get("delta", 0)),
        gst=int(doc.get("gst", 0)),
        delay_bound=int(doc.get("delay_bound", 16)),
        delays=doc.get("delays", {"kind": "fixed", "ticks": 1}),
        adversary=doc.get("adversary", {"kind": "none"}),
        byzantine=byz,
        batch=doc.get("batch"),
        payload_size=int(doc.get("payload_size", 64)),
    )
    return _validated(scenario, path)


def _validated(scenario: Scenario, where: str) -> Scenario:
    try:
        scenario.validate()
    except ScenarioError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return scenario


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(doc) - TOP_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    sweep = doc.get("sweep", {})
    if not isinstance(sweep, dict) or set(sweep) - SWEEP_KEYS:
        raise ConfigError(f"{path}: bad sweep section")
    scenario = _scenario_from(doc, path)
    return RunConfig(scenario=scenario, out_dir=doc.get("out_dir", "."), sweep=sweep)


def expand_sweep(cfg: RunConfig) -> list[Scenario]:
    """One scenario per (point, seed); f tracks n as (n-1)//3; batch defaults
    to n payloads per block."""
    base = cfg.scenario
    sweep = cfg.sweep
    ns = sweep.get("n", [base.n])
    models = sweep.get("model", [base.model])
    adversaries = sweep.get("adversary", [base.adversary])
    if "seeds" in sweep:
        seeds = list(sweep["seeds"])
    elif "seed_count" in sweep:
        seeds = list(range(base.seed, base.seed + int(sweep["seed_count"])))
    else:
        seeds = [base.seed]
    out = []
    for n in ns:
        for model in models:
            for adv in adversaries:
                for seed in seeds:
                    sc = Scenario(
                        n=n, f=(n - 1) // 3, model=model, seed=seed,
                        rounds=base.rounds, settle_rounds=base.settle_rounds,
                        delta=base.delta if model == "eventual-synchrony" else 0,
                        gst=base.gst if model == "eventual-synchrony" else 0,
                        delay_bound=base.delay_bound,
                        delays=dict(base.delays),
                        adversary=dict(adv) if isinstance(adv, dict) else {"kind": adv},
                        byzantine=dict(base.byzantine),
                        batch=sweep.get("batch", base.batch),
                        payload_size=base.payload_size,
                    )
                    out.append(_validated(sc, f"sweep point n={n} {model} seed={seed}"))
    return out
