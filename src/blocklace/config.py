"""Run/sweep configuration: a JSON document holding a Scenario plus output
paths and sweep axes."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from itertools import product

from .simnet import Scenario, ScenarioError, as_number

SWEEP_KEYS = {"n", "model", "seeds", "seed_count", "adversary", "batch"}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    scenario: Scenario
    out_dir: str
    sweep: dict


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
    out_dir = doc.pop("out_dir", ".")
    if not isinstance(out_dir, str):
        raise ConfigError(f"{path}: out_dir must be a string, got {out_dir!r}")
    sweep = doc.pop("sweep", {})
    if not isinstance(sweep, dict) or set(sweep) - SWEEP_KEYS:
        raise ConfigError(f"{path}: bad sweep section")
    try:
        scenario = Scenario.from_dict(doc)
    except ScenarioError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return RunConfig(scenario=scenario, out_dir=out_dir, sweep=sweep)


def _axis(sweep: dict, key: str, default: list) -> list:
    values = sweep.get(key, default)
    if not isinstance(values, list):
        raise ScenarioError(f"{key} must be a list, got {values!r}")
    return values


def expand_sweep(cfg: RunConfig) -> list[Scenario]:
    """One scenario per (point, seed); f tracks n as (n-1)//3; batch defaults
    to n payloads per block."""
    base = cfg.scenario
    sweep = cfg.sweep
    where = "sweep"
    try:
        ns = [as_number(n, int, "n") for n in _axis(sweep, "n", [base.n])]
        models = _axis(sweep, "model", [base.model])
        adversaries = _axis(sweep, "adversary", [base.adversary])
        if "seeds" in sweep:
            seeds = [as_number(s, int, "seeds") for s in _axis(sweep, "seeds", [])]
        elif "seed_count" in sweep:
            count = as_number(sweep["seed_count"], int, "seed_count")
            seeds = list(range(base.seed, base.seed + count))
        else:
            seeds = [base.seed]
        batch = sweep.get("batch", base.batch)
        if batch is not None:
            batch = as_number(batch, int, "batch")
        out = []
        for n, model, adv, seed in product(ns, models, adversaries, seeds):
            where = f"sweep point n={n} {model} seed={seed}"
            es = model == "eventual-synchrony"
            sc = dataclasses.replace(
                base, n=n, f=(n - 1) // 3, model=model, seed=seed,
                delta=base.delta if es else 0, gst=base.gst if es else 0,
                delays=dict(base.delays),
                adversary=dict(adv) if isinstance(adv, dict) else {"kind": adv},
                byzantine=dict(base.byzantine),
                batch=batch,
            )
            sc.validate()
            out.append(sc)
    except ScenarioError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return out
