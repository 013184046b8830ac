"""Configuration loading and validation.

Configs are YAML key/value files; any key left out falls back to the shipped
default experiment (two scalar plants, exponential fading with mean 2,
collision probability 0.25, Bernoulli harvesting at rate 0.5, batteries of
capacity 20, multiplier caps 19 with auxiliary caps 25, unit step size,
horizon 10000). Required reception probabilities are computed from the plant
models at load time unless ``required_reception`` overrides them.
"""

from __future__ import annotations

import copy
import logging
from pathlib import Path

import numpy as np
import yaml

from .comm import ChannelConfig, DecodingCurve
from .control import PlantModel, required_reception_probability
from .coordination import AvailabilitySchedule
from .energy import BatteryState, HarvestConfig
from .errors import ConfigError
from .scheduler import SchedulerParams
from .sim import SimConfig, sizing_report

logger = logging.getLogger(__name__)

DEFAULT_SEED = 1

DEFAULTS: dict = {
    "seed": DEFAULT_SEED,
    "horizon": 10_000,
    "plants": [
        {"a_open": 1.1, "a_closed": 0.15, "noise_cov": 1.0, "lyapunov_weight": 1.0,
         "decrease_rate": 0.8},
        {"a_open": 1.05, "a_closed": 0.1, "noise_cov": 1.0, "lyapunov_weight": 1.0,
         "decrease_rate": 0.8},
    ],
    "channel": {
        "fading_mean": 2.0,
        "collision_prob": 0.25,
        "decode": {"kind": "logistic", "rate": 3.0, "midpoint": 1.5},
    },
    "harvest": {"mean": 0.5, "distribution": "bernoulli"},
    "battery": {"capacity": 20.0, "initial": None},
    "scheduler": {"epsilon": 1.0, "nu_bar": 19.0, "y_bar": 25.0, "s_floor": 1e-6},
    "availability": {"mode": "always-on", "prob": 0.5, "staleness_bound": 1},
    "energy_accounting": "fluid",
    "dual_access": "mailbox",
    "initial_state": 0.0,
    "required_reception": None,
    "schedule_window": [1050, 1100],
    "lmi_tol": 1e-6,
}


def _merge(base: dict, override: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if key not in merged:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(merged[key], dict) and isinstance(value, dict):
            unknown = set(value) - set(merged[key])
            if unknown:
                raise ConfigError(f"unknown config key {key}.{unknown.pop()}")
            merged[key] = {**merged[key], **value}
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def read_raw(path=None) -> dict:
    """Raw config dict: shipped defaults overlaid with the file, if given."""
    if path is None:
        return copy.deepcopy(DEFAULTS)
    text = Path(path).read_text()
    try:
        data = yaml.safe_load(text) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a mapping")
    return _merge(DEFAULTS, data)


def _per_node(value, count: int, key: str) -> list:
    """A mapping applies to every node; a list must name each node."""
    if isinstance(value, list):
        if len(value) != count:
            raise ConfigError(f"{key} lists {len(value)} entries for {count} plants")
        return value
    return [value] * count


def build_config(raw: dict, seed=None, horizon=None) -> SimConfig:
    """Turn a raw config dict into a validated :class:`SimConfig`.

    ``seed``/``horizon`` override the corresponding keys (CLI flags).
    """
    raw = copy.deepcopy(raw)
    if seed is not None:
        raw["seed"] = seed
    if horizon is not None:
        raw["horizon"] = horizon

    plant_entries = raw["plants"]
    if not isinstance(plant_entries, list) or not plant_entries:
        raise ConfigError("plants must be a non-empty list")
    plants = tuple(
        PlantModel(
            a_open=entry["a_open"],
            a_closed=entry["a_closed"],
            noise_cov=entry.get("noise_cov", 1.0),
            lyapunov_weight=entry.get("lyapunov_weight", 1.0),
            decrease_rate=entry.get("decrease_rate", 0.8),
        )
        for entry in plant_entries
    )
    count = len(plants)

    chan = raw["channel"]
    decode_entry = chan.get("decode") or {}
    decode = DecodingCurve(
        kind=decode_entry.get("kind", "logistic"),
        rate=float(decode_entry.get("rate", 3.0)),
        midpoint=float(decode_entry.get("midpoint", 1.5)),
    )
    channel = ChannelConfig(
        fading_mean=float(chan["fading_mean"]),
        decode=decode,
        collision_prob=float(chan["collision_prob"]),
    )

    harvests = tuple(
        HarvestConfig(
            mean=float(entry["mean"]),
            distribution=entry.get("distribution", "bernoulli"),
        )
        for entry in _per_node(raw["harvest"], count, "harvest")
    )

    batteries = []
    for entry in _per_node(raw["battery"], count, "battery"):
        capacity = float(entry["capacity"])
        initial = entry.get("initial")
        charge = capacity if initial is None else float(initial)
        batteries.append(BatteryState(charge=charge, capacity=capacity))

    if raw["required_reception"] is not None:
        p = np.asarray(raw["required_reception"], dtype=float)
        if p.size != count:
            raise ConfigError("required_reception must list one value per plant")
    else:
        tol = float(raw["lmi_tol"])
        p = np.array([required_reception_probability(m, tol) for m in plants])
    if np.any(p == 0.0):
        logger.warning(
            "required reception probability is 0 for some plant; "
            "its reception constraint is vacuous"
        )

    sched = raw["scheduler"]
    params = SchedulerParams(
        epsilon=float(sched["epsilon"]),
        nu_bar=sched["nu_bar"],
        y_bar=sched["y_bar"],
        p=p,
        collision_prob=channel.collision_prob,
        s_floor=float(sched["s_floor"]),
    )

    avail = raw["availability"]
    availability = AvailabilitySchedule(
        mode=avail["mode"],
        prob=float(avail["prob"]),
        staleness_bound=int(avail["staleness_bound"]),
    )

    initial = raw["initial_state"]
    if initial is None:
        initial_states = None
    else:
        entries = _per_node(initial, count, "initial_state")
        initial_states = tuple(
            np.full(plants[i].dim, float(entries[i]))
            if np.isscalar(entries[i])
            else np.asarray(entries[i], dtype=float)
            for i in range(count)
        )

    window = raw["schedule_window"]
    if not (isinstance(window, (list, tuple)) and len(window) == 2):
        raise ConfigError("schedule_window must be [start, stop]")

    return SimConfig(
        plants=plants,
        channel=channel,
        harvests=harvests,
        batteries=tuple(batteries),
        params=params,
        availability=availability,
        horizon=int(raw["horizon"]),
        seed=int(raw["seed"]),
        energy_accounting=raw["energy_accounting"],
        dual_access=raw["dual_access"],
        initial_states=initial_states,
        schedule_window=(int(window[0]), int(window[1])),
    )


def load_config(path=None, seed=None, horizon=None, strict: bool = False) -> SimConfig:
    """Load, build, and size-check a configuration.

    Sizing-rule violations raise in strict mode and log warnings otherwise.
    """
    config = build_config(read_raw(path), seed=seed, horizon=horizon)
    problems = sizing_report(config)
    if problems and strict:
        raise ConfigError("sizing check failed: " + "; ".join(problems))
    for problem in problems:
        logger.warning("sizing: %s", problem)
    return config


def default_config(seed=None, horizon=None) -> SimConfig:
    return build_config(read_raw(None), seed=seed, horizon=horizon)
