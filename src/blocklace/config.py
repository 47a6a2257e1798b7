"""Run/sweep configuration: a JSON document mirroring Scenario plus output
paths and sweep axes."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .simnet import ByzSpec, Scenario, ScenarioError

SCENARIO_KEYS = {f.name for f in dataclasses.fields(Scenario)}
TOP_KEYS = SCENARIO_KEYS | {"out_dir", "sweep"}
SWEEP_KEYS = {"n", "model", "seeds", "seed_count", "adversary", "batch"}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    scenario: Scenario
    out_dir: str
    sweep: dict


def _number(value, kind, where: str):
    """kind(value), or a ConfigError naming where the value came from."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}") from None


def _optional_int(value, where: str) -> int | None:
    return None if value is None else _number(value, int, where)


def _scenario_from(doc: dict, path: str) -> Scenario:
    byz = {}
    byzantine = doc.get("byzantine", {})
    if not isinstance(byzantine, dict):
        raise ConfigError(f"{path}: byzantine must be an object")
    for key, spec in byzantine.items():
        try:
            mid = int(key)
        except ValueError:
            raise ConfigError(f"{path}: byzantine key {key!r} is not a miner index")
        if not isinstance(spec, dict) or "behavior" not in spec:
            raise ConfigError(f"{path}: byzantine[{key}] needs a behavior")
        byz[mid] = ByzSpec(
            behavior=spec["behavior"],
            rate=_number(spec.get("rate", 0.0), float, f"{path}: byzantine[{key}].rate"),
            round=_number(spec.get("round", 0), int, f"{path}: byzantine[{key}].round"))

    def num(key, default):
        return _number(doc.get(key, default), int, f"{path}: {key}")

    n = num("n", 4)
    scenario = Scenario(
        n=n,
        f=num("f", (n - 1) // 3),
        model=doc.get("model", "eventual-synchrony"),
        seed=num("seed", 0),
        rounds=num("rounds", 30),
        settle_rounds=_optional_int(doc.get("settle_rounds"), f"{path}: settle_rounds"),
        delta=num("delta", 0),
        gst=num("gst", 0),
        delay_bound=num("delay_bound", 16),
        delays=doc.get("delays", {"kind": "fixed", "ticks": 1}),
        adversary=doc.get("adversary", {"kind": "none"}),
        byzantine=byz,
        batch=_optional_int(doc.get("batch"), f"{path}: batch"),
        payload_size=num("payload_size", 64),
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
    ns = [_number(n, int, "sweep n") for n in sweep.get("n", [base.n])]
    models = sweep.get("model", [base.model])
    adversaries = sweep.get("adversary", [base.adversary])
    if "seeds" in sweep:
        seeds = [_number(s, int, "sweep seeds") for s in sweep["seeds"]]
    elif "seed_count" in sweep:
        count = _number(sweep["seed_count"], int, "sweep seed_count")
        seeds = list(range(base.seed, base.seed + count))
    else:
        seeds = [base.seed]
    batch = _optional_int(sweep.get("batch", base.batch), "sweep batch")
    out = []
    for n in ns:
        for model in models:
            for adv in adversaries:
                for seed in seeds:
                    es = model == "eventual-synchrony"
                    sc = dataclasses.replace(
                        base, n=n, f=(n - 1) // 3, model=model, seed=seed,
                        delta=base.delta if es else 0, gst=base.gst if es else 0,
                        delays=dict(base.delays),
                        adversary=dict(adv) if isinstance(adv, dict) else {"kind": adv},
                        byzantine=dict(base.byzantine),
                        batch=batch,
                    )
                    out.append(_validated(sc, f"sweep point n={n} {model} seed={seed}"))
    return out
