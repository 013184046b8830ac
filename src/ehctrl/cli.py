"""Command-line front end.

Subcommands:

  run            simulate one configuration and write slots.csv, summary.csv
                 and summary.json
  figures        simulate the same configuration and write the plot-ready
                 fig_*.csv aggregates
  required-prob  print the reception probability a plant needs for its
                 decrease-rate target
  check-config   verify the dual-bound and battery sizing rules
  sweep          rerun the simulation over a grid of one scalar parameter or
                 of root seeds, one summary row per point

Exit codes: 0 success, 2 configuration error, 3 runtime invariant violation
(``run`` and ``figures`` still flush the partial telemetry; ``sweep`` names
the aborted point and writes no ``sweep.csv``). Set
EHCTRL_LOG=DEBUG|INFO|WARNING for log verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import functools
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import telemetry
from .control import (
    DEFAULT_LMI_TOL,
    PlantModel,
    control_performance_bound,
    required_reception_probability,
)
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
    "seed": ("seed",),
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

    p_fig = sub.add_parser("figures", help="plot-ready aggregates of one configuration")
    _add_common(p_fig)

    p_req = sub.add_parser("required-prob", help="required reception probability of a plant")
    p_req.add_argument("--a-open", type=float, default=None, help="open-loop gain (scalar plant)")
    p_req.add_argument("--a-closed", type=float, default=None, help="closed-loop gain (scalar plant)")
    p_req.add_argument("--rho", type=float, default=None, help="decrease rate in (0,1)")
    p_req.add_argument("--lyapunov", type=float, default=1.0, help="scalar certificate weight")
    p_req.add_argument("--plant-file", type=Path, default=None,
                       help="YAML file with a_open/a_closed matrices")
    p_req.add_argument("--tol", type=float, default=DEFAULT_LMI_TOL, help="bisection tolerance")

    p_check = sub.add_parser("check-config", help="verify sizing rules")
    p_check.add_argument("--config", type=Path, default=None)
    p_check.add_argument("--strict", action="store_true")

    p_sweep = sub.add_parser("sweep", help="grid over one scalar parameter")
    _add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=sorted(SWEEP_PARAMS))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated grid, e.g. 0.1,0.3,0.5 (integers for seed)")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    return parser


def _simulate(args, write):
    """Load and run the config that ``args`` names, then hand the record, its
    summary and the config to ``write``. A run that breaks a runtime
    invariant writes its partial record the same way and prints ``aborted:
    <cause>`` on stderr. Return the config and the result, or None after an
    abort."""
    config = config_mod.load_config(
        args.config, seed=args.seed, horizon=args.horizon, strict=args.strict
    )
    try:
        result = run(config)
    except SimulationAborted as exc:
        logger.error("%s", exc)
        write(exc.record, summarize(exc.record), config)
        print(f"aborted: {exc}", file=sys.stderr)
        return None
    write(result.record, result.summary, config)
    return config, result


def cmd_run(args) -> int:
    done = _simulate(
        args, lambda record, summary, config: telemetry.write_outputs(record, summary, args.out)
    )
    if done is None:
        return EXIT_INVARIANT
    config, result = done
    s = result.summary
    for i in range(s.p_tx.size):
        print(
            f"node {i + 1}: required p = {s.p_required[i]:.4f}, "
            f"p_tx = {s.p_tx[i]:.4f}, p_rx = {s.p_rx_analytic[i]:.4f} "
            f"(empirical {s.p_rx_empirical[i]:.4f}), "
            f"ctrl_perf = {s.ctrl_perf[i]:.4f}, "
            f"bound = {control_performance_bound(config.plants[i]):.4f}, "
            f"energy balance = {s.energy_balance[i]:.4f}"
        )
    return EXIT_OK


def cmd_figures(args) -> int:
    done = _simulate(args, lambda record, summary, config: telemetry.write_figures(
        record, summary, args.out, config.schedule_window
    ))
    if done is None:
        return EXIT_INVARIANT
    (start, stop), horizon = done[0].schedule_window, done[0].horizon
    if start >= horizon:
        logger.warning("schedule_window [%d, %d] starts at or after the horizon %d: "
                       "fig_schedule_window.csv holds only its header", start, stop, horizon)
    return EXIT_OK


def _plant_from_args(args) -> PlantModel:
    if args.plant_file is not None:
        data = config_mod.read_yaml(args.plant_file, "plant-file")
        return config_mod.build_plant(data, "plant-file")
    if args.a_open is None or args.a_closed is None or args.rho is None:
        raise ConfigError("required-prob needs --a-open, --a-closed and --rho (or --plant-file)")
    entry = {"a_open": args.a_open, "a_closed": args.a_closed,
             "lyapunov_weight": args.lyapunov, "decrease_rate": args.rho}
    return config_mod.build_plant(entry, "plant")


def cmd_required_prob(args) -> int:
    plant = _plant_from_args(args)
    p = required_reception_probability(plant, tol=args.tol)
    print(f"{p:.10g}")
    return EXIT_OK


def cmd_check_config(args) -> int:
    config = config_mod.build_config(config_mod.read_raw(args.config))
    problems = sizing_violations(config.params, config.capacity)
    needed_y, needed_b = sizing_needs(config.params)
    print(f"auxiliary caps: min y_bar = {config.params.y_bar.min():g}, "
          f"needed >= {needed_y.max():g}")
    print(f"battery capacities: min = {config.capacity.min():g}, needed >= {needed_b.max():g}")
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


def _sweep_config(raw: dict, args, index: int, value, logged: set):
    """The built and size-checked config of point ``index``; ``logged`` holds
    the sizing problems already logged by earlier points."""
    raw = copy.deepcopy(raw)
    *path, leaf = SWEEP_PARAMS[args.param]
    target = raw
    for key in path:
        target = target[key]
    target[leaf] = value
    config = config_mod.build_config(raw, horizon=args.horizon)
    if args.param != "seed":
        config = dataclasses.replace(config, seed=_derived_seed(config.seed, index))
    return config_mod.check_sizing(config, args.strict, logged)


def _sweep_row(param: str, value, config) -> dict:
    s = run(config).summary
    columns = {"p_required": s.p_required, "p_tx": s.p_tx, "p_rx": s.p_rx_analytic,
               "ctrl_perf": s.ctrl_perf, "energy_balance": s.energy_balance}
    row: dict = {"param": param, "value": value, "seed": config.seed}
    for i in range(s.p_tx.size):
        row.update({f"{name}_{i + 1}": float(values[i]) for name, values in columns.items()})
    return row


def cmd_sweep(args) -> int:
    """One summary row per point of the grid, in grid order, into
    ``sweep.csv``; point i runs at a seed derived from the root seed and i,
    a ``seed`` point at its value, read as an integer. Every point is built,
    validated and size-checked (as ``run`` checks its config, ``--strict``
    included) before the first one runs; a sizing problem that several
    points share is logged once. A point whose run breaks a
    runtime invariant ends the sweep with exit 3 and ``aborted: point
    <index> (<param> = <value>): <cause>`` on stderr; no ``sweep.csv`` is
    written, and with ``--jobs`` > 1 the points not yet started are
    cancelled."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    raw = config_mod.read_raw(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    kind = int if args.param == "seed" else float
    try:
        values = [kind(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse sweep values: {exc}") from exc
    if not values:
        raise ConfigError("sweep needs at least one value")
    logged = set()
    configs = [_sweep_config(raw, args, index, value, logged)
               for index, value in enumerate(values)]

    point = functools.partial(_sweep_row, args.param)
    rows = []
    with contextlib.ExitStack() as stack:
        if args.jobs > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # Spawned workers: forking a process whose numpy may run BLAS
            # threads is unsafe.
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=min(args.jobs, len(values)),
                mp_context=multiprocessing.get_context("spawn"),
            ))
            stack.callback(pool.shutdown, cancel_futures=True)
            results = pool.map(point, values, configs)
        else:
            results = map(point, values, configs)
        try:
            for row in results:
                rows.append(row)
        except SimulationAborted as exc:
            print(f"aborted: point {len(rows)} ({args.param} = {values[len(rows)]}): {exc}",
                  file=sys.stderr)
            return EXIT_INVARIANT

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
        "figures": cmd_figures,
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
