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
from .control import DEFAULT_LMI_TOL, PlantModel, required_reception_probability
from .coordination import AvailabilitySchedule
from .energy import HarvestConfig
from .errors import ConfigError
from .scheduler import SchedulerParams, sizing_violations
from .sim import SimConfig, battery_problem

logger = logging.getLogger(__name__)

_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

DEFAULTS: dict = {
    "seed": 1,
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
    "initial_state": 0.0,
    "required_reception": None,
    "schedule_window": [1050, 1100],
    "lmi_tol": DEFAULT_LMI_TOL,
}


# Keys of one plant, harvest or battery entry: the required ones, and the
# optional ones with their defaults (None: see :func:`build_plant`).
_ENTRY_KEYS = {
    "plants": (
        ("a_open", "a_closed"),
        {"noise_cov": None, "lyapunov_weight": None, "decrease_rate": 0.8},
    ),
    "harvest": (("mean",), {"distribution": "bernoulli"}),
    "battery": (("capacity",), {"initial": None}),
}

# Sections that may list one entry per node in place of a single mapping.
_PER_NODE = ("harvest", "battery")


def _merge(base: dict, override: dict, where: str = "") -> dict:
    """``base`` overlaid with ``override``, recursing into every mapping of
    ``base``; ``where`` is the dotted key prefix that names errors."""
    merged = copy.deepcopy(base)
    for key, value in override.items():
        name = f"{where}{key}"
        if key not in merged:
            raise ConfigError(f"unknown config key {name}")
        if isinstance(merged[key], dict) and not (name in _PER_NODE and isinstance(value, list)):
            if not isinstance(value, dict):
                raise ConfigError(f"{name} must be a mapping")
            merged[key] = _merge(merged[key], value, f"{name}.")
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


_KIND_NAMES = {float: "a number", int: "an integer", _floats: "numbers"}


def _convert(value, key: str, kind=float):
    """``value`` as ``kind`` (float, int or :func:`_floats`), or a
    :class:`ConfigError` naming ``key``. An integer must be integral: 5.0
    converts, 2.7 does not; numbers must be finite. A YAML boolean (true,
    yes, off, ...) is not a number, not even inside a list."""
    try:
        if any(isinstance(v, bool) for v in np.asarray(value, dtype=object).flat):
            raise TypeError
        converted = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}") from None
    if kind is int and not isinstance(value, str) and converted != value:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if kind is not int and not np.isfinite(converted).all():
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return converted


def read_yaml(path, what: str):
    """The YAML document in ``path``, parsed safely (with libyaml when pyyaml
    has it); a syntax error is a :class:`ConfigError` naming ``what``."""
    text = Path(path).read_text()
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {what} {path}: {exc}") from exc


def read_raw(path=None) -> dict:
    """Raw config dict: shipped defaults overlaid with the file, if given."""
    if path is None:
        return copy.deepcopy(DEFAULTS)
    data = read_yaml(path, "config") or {}
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


def _entry(entry, where: str, key: str) -> dict:
    """One plant, harvest or battery entry with its optional keys filled in,
    checked to be a mapping with every required key and no unknown one;
    ``where`` names it in errors."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be a mapping")
    required, optional = _ENTRY_KEYS[key]
    for name in required:
        if name not in entry:
            raise ConfigError(f"{where}.{name} is required")
    unknown = sorted(set(entry) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"unknown config key {where}.{unknown[0]}")
    return {**optional, **entry}


def build_plant(entry, where: str) -> PlantModel:
    """The :class:`PlantModel` of one plant entry; ``where`` names it in
    errors. ``noise_cov`` and ``lyapunov_weight`` left out (or null) are the
    identity of the plant's dimension."""
    fields = {
        name: _convert(value, f"{where}.{name}", float if name == "decrease_rate" else _floats)
        for name, value in _entry(entry, where, "plants").items() if value is not None
    }
    eye = np.eye(len(np.atleast_2d(fields["a_open"])))
    return PlantModel(**{"noise_cov": eye, "lyapunov_weight": eye, **fields})


def _node_entries(raw: dict, key: str, count: int) -> list[tuple[str, dict]]:
    """The name and checked entry of every node's harvest or battery."""
    value = raw[key]
    names = [f"{key}[{i}]" for i in range(count)] if isinstance(value, list) else [key] * count
    return [(name, _entry(e, name, key)) for e, name in zip(_per_node(value, count, key), names)]


def build_config(raw: dict, seed=None, horizon=None) -> SimConfig:
    """Turn a raw config dict into a validated :class:`SimConfig`.

    Keys left out of ``raw`` fall back to the shipped defaults, and an
    unknown key is a :class:`ConfigError`, as in a config file.
    ``seed``/``horizon`` override the corresponding keys (CLI flags).
    """
    raw = _merge(DEFAULTS, raw)
    if seed is not None:
        raw["seed"] = seed
    if horizon is not None:
        raw["horizon"] = horizon

    plant_entries = raw["plants"]
    if not isinstance(plant_entries, list) or not plant_entries:
        raise ConfigError("plants must be a non-empty list")
    plants = tuple(
        build_plant(entry, f"plants[{i}]") for i, entry in enumerate(plant_entries)
    )
    count = len(plants)

    chan = raw["channel"]
    decode = chan["decode"]
    channel = ChannelConfig(
        fading_mean=_convert(chan["fading_mean"], "channel.fading_mean"),
        decode=DecodingCurve(
            kind=decode["kind"],
            rate=_convert(decode["rate"], "channel.decode.rate"),
            midpoint=_convert(decode["midpoint"], "channel.decode.midpoint"),
        ),
    )

    harvests = tuple(
        HarvestConfig(mean=_convert(entry["mean"], f"{where}.mean"),
                      distribution=entry["distribution"])
        for where, entry in _node_entries(raw, "harvest", count)
    )

    capacity, charge = [], []
    for where, entry in _node_entries(raw, "battery", count):
        capacity.append(_convert(entry["capacity"], f"{where}.capacity"))
        initial = entry["initial"]
        charge.append(capacity[-1] if initial is None else _convert(initial, f"{where}.initial"))
        problem = battery_problem(capacity[-1], charge[-1])
        if problem:
            raise ConfigError(f"{where}.{problem[0]}: {problem[1]}")

    if raw["required_reception"] is not None:
        p = _convert(raw["required_reception"], "required_reception", _floats)
        if p.size != count:
            raise ConfigError("required_reception must list one value per plant")
    else:
        tol = _convert(raw["lmi_tol"], "lmi_tol")
        p = np.array([required_reception_probability(m, tol) for m in plants])
    if np.any(p == 0.0):
        logger.warning(
            "required reception probability is 0 for some plant; "
            "its reception constraint is vacuous"
        )

    sched = raw["scheduler"]
    params = SchedulerParams(
        epsilon=_convert(sched["epsilon"], "scheduler.epsilon"),
        nu_bar=_convert(sched["nu_bar"], "scheduler.nu_bar", _floats),
        y_bar=_convert(sched["y_bar"], "scheduler.y_bar", _floats),
        p=p,
        collision_prob=_convert(chan["collision_prob"], "channel.collision_prob"),
        s_floor=_convert(sched["s_floor"], "scheduler.s_floor"),
    )

    avail = raw["availability"]
    availability = AvailabilitySchedule(
        mode=avail["mode"],
        prob=_convert(avail["prob"], "availability.prob"),
        staleness_bound=_convert(avail["staleness_bound"], "availability.staleness_bound", int),
    )

    initial = raw["initial_state"]
    if initial is None:
        initial_states = None
    else:
        entries = _per_node(initial, count, "initial_state")
        initial_states = tuple(
            np.full(plants[i].dim, _convert(entries[i], "initial_state"))
            if np.isscalar(entries[i])
            else _convert(entries[i], "initial_state", _floats)
            for i in range(count)
        )

    window = raw["schedule_window"]
    if not (isinstance(window, (list, tuple)) and len(window) == 2):
        raise ConfigError("schedule_window must be [start, stop]")
    window = tuple(_convert(w, "schedule_window", int) for w in window)
    if window[0] > window[1]:
        raise ConfigError(f"schedule_window start {window[0]} is after its stop {window[1]}")

    return SimConfig(
        plants=plants,
        channel=channel,
        harvests=harvests,
        capacity=capacity,
        charge=charge,
        params=params,
        availability=availability,
        horizon=_convert(raw["horizon"], "horizon", int),
        seed=_convert(raw["seed"], "seed", int),
        energy_accounting=raw["energy_accounting"],
        initial_states=initial_states,
        schedule_window=window,
    )


def check_sizing(config: SimConfig, strict: bool = False, logged=None) -> SimConfig:
    """``config``, checked against the sizing rules that bound the duals and
    guarantee per-slot energy causality. Violations raise in strict mode and
    log warnings otherwise. ``logged``, a set shared across calls, keeps a
    problem it already holds from being logged again."""
    problems = sizing_violations(config.params, config.capacity)
    if problems and strict:
        raise ConfigError("sizing check failed: " + "; ".join(problems))
    logged = set() if logged is None else logged
    for problem in problems:
        if problem not in logged:
            logged.add(problem)
            logger.warning("sizing: %s", problem)
    return config


def load_config(path=None, seed=None, horizon=None, strict: bool = False) -> SimConfig:
    """Load, build, and size-check (:func:`check_sizing`) a configuration."""
    return check_sizing(build_config(read_raw(path), seed=seed, horizon=horizon), strict)
