"""Command-line front end.

Subcommands:

  run            simulate one configuration and write slots.csv, summary.csv,
                 summary.json and the fig_*.csv aggregates
  required-prob  print the reception probability a plant needs for its
                 decrease-rate target
  check-config   verify the dual-bound and battery sizing rules
  sweep          rerun the simulation over a grid of one scalar parameter,
                 one summary row per point

Exit codes: 0 success, 2 configuration error, 3 runtime invariant violation
(partial telemetry is still flushed). Set EHCTRL_LOG=DEBUG|INFO|WARNING for
log verbosity.
"""

from __future__ import annotations

import argparse
import copy
import functools
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import telemetry
from .control import PlantModel, control_performance_bound, required_reception_probability
from .errors import ConfigError, InfeasibleTargetError
from .scheduler import sizing_needs, sizing_violations
from .sim import SimulationAborted, run, summarize

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3

SWEEP_PARAMS = {
    "harvest_mean": ("harvest", "mean"),
    "collision_prob": ("channel", "collision_prob"),
    "fading_mean": ("channel", "fading_mean"),
    "decode_rate": ("channel", "decode", "rate"),
    "epsilon": ("scheduler", "epsilon"),
    "staleness_bound": ("availability", "staleness_bound"),
}


def _setup_logging() -> None:
    level = os.environ.get("EHCTRL_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="YAML config file")
    parser.add_argument("--seed", type=int, default=None, help="root seed override")
    parser.add_argument("--horizon", type=int, default=None, help="slot-count override")
    parser.add_argument("--out", type=Path, default=Path("ehctrl-out"), help="output directory")
    parser.add_argument("--strict", action="store_true", help="fail on sizing violations")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehctrl",
        description="Random-access scheduling simulator for energy-harvesting control loops",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one configuration")
    _add_common(p_run)

    p_req = sub.add_parser("required-prob", help="required reception probability of a plant")
    p_req.add_argument("--a-open", type=float, default=None, help="open-loop gain (scalar plant)")
    p_req.add_argument("--a-closed", type=float, default=None, help="closed-loop gain (scalar plant)")
    p_req.add_argument("--rho", type=float, default=None, help="decrease rate in (0,1)")
    p_req.add_argument("--lyapunov", type=float, default=1.0, help="scalar certificate weight")
    p_req.add_argument("--plant-file", type=Path, default=None,
                       help="YAML file with a_open/a_closed matrices")
    p_req.add_argument("--tol", type=float, default=1e-6, help="bisection tolerance")

    p_check = sub.add_parser("check-config", help="verify sizing rules")
    p_check.add_argument("--config", type=Path, default=None)
    p_check.add_argument("--strict", action="store_true")

    p_sweep = sub.add_parser("sweep", help="grid over one scalar parameter")
    _add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=sorted(SWEEP_PARAMS))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated grid, e.g. 0.1,0.3,0.5")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    return parser


def cmd_run(args) -> int:
    config = config_mod.load_config(
        args.config, seed=args.seed, horizon=args.horizon, strict=args.strict
    )
    try:
        result = run(config)
    except SimulationAborted as exc:
        logger.error("%s", exc)
        telemetry.write_outputs(
            exc.record, summarize(exc.record), args.out, config.schedule_window
        )
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    telemetry.write_outputs(result.record, result.summary, args.out, config.schedule_window)
    for entry, plant in zip(result.summary.nodes, config.plants):
        print(
            f"node {entry.node + 1}: required p = {entry.p_required:.4f}, "
            f"p_tx = {entry.p_tx:.4f}, p_rx = {entry.p_rx_analytic:.4f} "
            f"(empirical {entry.p_rx_empirical:.4f}), "
            f"ctrl_perf = {entry.ctrl_perf:.4f}, "
            f"bound = {control_performance_bound(plant):.4f}, "
            f"energy balance = {entry.energy_balance:.4f}"
        )
    return EXIT_OK


def _plant_from_args(args) -> PlantModel:
    if args.plant_file is not None:
        data = config_mod.read_yaml(args.plant_file, "plant-file")
        return config_mod.build_plant(data, "plant-file")
    if args.a_open is None or args.a_closed is None or args.rho is None:
        raise ConfigError("required-prob needs --a-open, --a-closed and --rho (or --plant-file)")
    return PlantModel(
        a_open=args.a_open,
        a_closed=args.a_closed,
        noise_cov=1.0,
        lyapunov_weight=args.lyapunov,
        decrease_rate=args.rho,
    )


def cmd_required_prob(args) -> int:
    plant = _plant_from_args(args)
    p = required_reception_probability(plant, tol=args.tol)
    print(f"{p:.10g}")
    return EXIT_OK


def cmd_check_config(args) -> int:
    config = config_mod.load_config(args.config, strict=False)
    caps = [b.capacity for b in config.batteries]
    problems = sizing_violations(config.params, caps)
    needed_y, needed_b = sizing_needs(config.params)
    print(f"auxiliary caps: min y_bar = {config.params.y_bar.min():g}, "
          f"needed >= {needed_y.max():g}")
    print(f"battery capacities: min = {min(caps):g}, needed >= {needed_b.max():g}")
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        if args.strict:
            return EXIT_CONFIG
    else:
        print("PASS: sizing rules satisfied")
    return EXIT_OK


def _derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=(seed, index)).generate_state(1, np.uint64)[0])


def _sweep_point(raw: dict, param: str, seed: int, horizon, index: int, value: float) -> dict:
    raw = copy.deepcopy(raw)
    *path, leaf = SWEEP_PARAMS[param]
    target = raw
    for key in path:
        target = target[key]
    target[leaf] = value
    config = config_mod.build_config(raw, seed=_derived_seed(seed, index), horizon=horizon)
    result = run(config)
    row: dict = {"param": param, "value": value, "seed": config.seed}
    for entry in result.summary.nodes:
        suffix = str(entry.node + 1)
        row[f"p_required_{suffix}"] = entry.p_required
        row[f"p_tx_{suffix}"] = entry.p_tx
        row[f"p_rx_{suffix}"] = entry.p_rx_analytic
        row[f"ctrl_perf_{suffix}"] = entry.ctrl_perf
        row[f"energy_balance_{suffix}"] = entry.energy_balance
    return row


def cmd_sweep(args) -> int:
    raw = config_mod.read_raw(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse sweep values: {exc}") from exc
    if not values:
        raise ConfigError("sweep needs at least one value")
    base_seed = config_mod._convert(raw["seed"], "seed", int)

    point = functools.partial(_sweep_point, raw, args.param, base_seed, args.horizon)
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(point, range(len(values)), values))
    else:
        rows = list(map(point, range(len(values)), values))

    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "sweep.csv"
    telemetry.write_csv(path, {key: [row[key] for row in rows] for key in rows[0]})
    print(f"wrote {path} ({len(rows)} points)")
    return EXIT_OK


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "required-prob": cmd_required_prob,
        "check-config": cmd_check_config,
        "sweep": cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, InfeasibleTargetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
