#!/usr/bin/env python3
"""ehctrl benchmark: three closed-loop workloads, end-to-end and per-layer.

Usage (from the repository root):

    python3 bench/run.py --workload paper-run|seed-batch|many-nodes \\
        [--seed N] [--seconds S] [--trace 0|1]

One workload execution is one fresh ``python3 bench/worker.py`` process: it
imports ``ehctrl`` from ``src/``, loads every config the workload uses,
simulates, writes (``paper-run`` only) and exits. Executions run one after
another until ``--seconds`` have passed, and at least ``MIN_EXECUTIONS``
times; all executions of a run get the same inputs, made from ``--seed``.

``--trace 0`` times only the top-level calls (config loading, ``sim.run``,
the telemetry writers) and reports the end-to-end metrics as medians over
executions:

  setup_s           process spawn to the first slot: interpreter start,
                    ``import ehctrl``, loading and size-checking every config
  wall_s            process spawn to exit: setup, simulation and writing
  node_slots_per_s  sum of nodes x slots over the time inside ``sim.run``
  peak_rss_mb       ``ru_maxrss`` of the execution's process
  success_frac      1 - failed / attempted; a sim run that aborts or whose
                    output digest is wrong counts as failed (reported as a
                    success share because the failure share reads 0)

``--trace 1`` alternates untraced executions with executions that trace
every layer (see ``layers.py``) and reports ``<layer>.calls`` and
``<layer>.self_s`` per execution, ``sim.total_s`` (sim spans including their
children), ``comm.rx_per_tx``, ``coordination.exchanges_per_slot``,
``telemetry.bytes`` and ``telemetry.mb_per_s``, ``sim.record_mb`` (largest
``TelemetryRecord``) and ``trace_overhead_frac`` (traced over untraced
median ``wall_s``, minus one). Traced numbers never enter the end-to-end
metrics.

Workloads:

  paper-run   ``ehctrl run`` (in process, through ``cli.main``) on the shipped
              ``configs/paper-sec6.cfg`` at ``--seed``: 2 scalar plants,
              always-on, 10k slots, every output file written. The command
              every user runs; writing is about a quarter of ``wall_s``.
  seed-batch  the shipped plants at ``SEED_BATCH_SEEDS`` derived seeds, each
              always-on, piggyback at B = 5, 20, 50 and random at p = 0.5,
              B = 10, ``sim.run`` only. The traffic of the acceptance tests
              and study scripts; every availability mode, telemetry bypassed.
  many-nodes  32 nodes, random availability (p = 0.5, B = 10), every eighth
              plant 3x3, collision probability 0.01 (at the shipped 0.25,
              32 nodes diverge). O(M^2) loops in comm, coordination and
              scheduler, (T, M, M) records, bisection during setup.

Which end-to-end metric each layer metric should move, and where:

  scheduler/control/energy/sim self_s  -> node_slots_per_s on seed-batch
                                          (less on paper-run, diluted by writing)
  comm/coordination self_s             -> node_slots_per_s on many-nodes
                                          (little on always-on paper-run)
  telemetry.self_s, telemetry.bytes    -> wall_s on paper-run; no change on
                                          seed-batch and many-nodes
  sim.record_mb                        -> peak_rss_mb on many-nodes
  config.self_s, control during setup  -> setup_s on many-nodes and paper-run
  .calls, rx_per_tx, exchanges_per_slot   repeat exactly for a seed; a
                                          speed-only change must not move them

Outputs are checked on every execution. Each sim run has a digest (sha256
of ``slots.csv`` and ``summary.json`` for paper-run, of the run's
``summary_dict`` otherwise); at ``DEFAULT_SEED`` it must equal the one in
``pinned.json``, at other seeds the first execution's. A run that differs
or aborts counts as failed. The result is stamped with the git SHA,
the Python and numpy versions, the CPU count and the seed; its last line on
stdout is the result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

from layers import LAYERS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SHIPPED_CONFIG = ROOT / "configs" / "paper-sec6.cfg"

DEFAULT_SEED = 1
MIN_EXECUTIONS = 3
EXECUTION_TIMEOUT_S = 60

SEED_BATCH_SEEDS = 2
SEED_BATCH_HORIZON = 1000
SEED_BATCH_MODES = (
    {"mode": "always-on", "prob": 0.5, "staleness_bound": 1},
    {"mode": "piggyback", "prob": 0.5, "staleness_bound": 5},
    {"mode": "piggyback", "prob": 0.5, "staleness_bound": 20},
    {"mode": "piggyback", "prob": 0.5, "staleness_bound": 50},
    {"mode": "random", "prob": 0.5, "staleness_bound": 10},
)

MANY_NODES_COUNT = 32
MANY_NODES_HORIZON = 600
# The shipped 0.25 makes 32 nodes infeasible (plant states diverge).
MANY_NODES_COLLISION_PROB = 0.01
SCALAR_PLANTS = (
    {"a_open": 1.1, "a_closed": 0.15, "decrease_rate": 0.8},
    {"a_open": 1.05, "a_closed": 0.1, "decrease_rate": 0.8},
)
# Every eighth plant: needs bisection for its reception requirement.
MATRIX_PLANT = {
    "a_open": [[1.05, 0.2, 0.0], [0.0, 1.0, 0.2], [0.0, 0.0, 0.9]],
    "a_closed": [[0.2, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.2]],
    "noise_cov": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "lyapunov_weight": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "decrease_rate": 0.8,
}

WORKLOADS = ("paper-run", "seed-batch", "many-nodes")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "node_slots_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_frac": "ratio",
}


def derived_seed(workload: str, seed: int, index: int) -> int:
    """64-bit sub-seed number ``index`` of a workload seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def make_inputs(workload: str, seed: int, workdir: Path) -> list[tuple[str, int]]:
    """(config path, ehctrl seed) pairs for one execution. Configs are
    written as JSON, which the YAML loader reads; keys left out fall back to
    the shipped experiment."""
    if workload == "paper-run":
        return [(str(SHIPPED_CONFIG), seed)]

    def write(name: str, cfg: dict) -> str:
        path = workdir / f"{name}.cfg"
        path.write_text(json.dumps(cfg))
        return str(path)

    if workload == "seed-batch":
        paths = [
            write(f"batch-{m}", {"horizon": SEED_BATCH_HORIZON, "availability": availability})
            for m, availability in enumerate(SEED_BATCH_MODES)
        ]
        return [
            (path, derived_seed(workload, seed, k))
            for k in range(SEED_BATCH_SEEDS)
            for path in paths
        ]

    plants = [
        MATRIX_PLANT if i % 8 == 7 else SCALAR_PLANTS[i % 2]
        for i in range(MANY_NODES_COUNT)
    ]
    cfg = {
        "horizon": MANY_NODES_HORIZON,
        "plants": plants,
        "channel": {"collision_prob": MANY_NODES_COLLISION_PROB},
        "availability": {"mode": "random", "prob": 0.5, "staleness_bound": 10},
    }
    return [(write("many-nodes", cfg), derived_seed(workload, seed, 0))]


def execute(workload: str, inputs, workdir: Path, index: int, trace: bool) -> dict:
    """Run one execution in a fresh worker process and return its report
    with the spawn-relative times filled in."""
    job = {
        "workload": workload,
        "configs": inputs,
        "out": str(workdir / f"out-{index}"),
        "trace": trace,
    }
    job_path = workdir / f"job-{index}.json"
    result_path = workdir / f"result-{index}.json"
    job_path.write_text(json.dumps(job))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    env.pop("EHCTRL_LOG", None)
    log = workdir / f"log-{index}.txt"
    with open(log, "wb") as fh:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(job_path), str(result_path)],
            stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=workdir,
        )
        try:
            code = proc.wait(timeout=EXECUTION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
        exited = time.monotonic()
    if code != 0 or not result_path.exists():
        tail = log.read_text(errors="replace")[-2000:]
        print(f"execution {index} failed (exit {code}):\n{tail}", file=sys.stderr)
        return {"attempted": len(inputs), "failed": len(inputs), "digests": None}
    report = json.loads(result_path.read_text())
    if Path(report["ehctrl_file"]).resolve().parent.parent != SRC:
        raise SystemExit(f"worker imported ehctrl from {report['ehctrl_file']}, not {SRC}")
    report["setup_s"] = report["setup_end"] - spawn
    report["wall_s"] = exited - spawn
    shutil.rmtree(job["out"], ignore_errors=True)
    return report


def end_to_end(reports: list[dict], attempted: int, failed: int) -> dict:
    median = statistics.median
    return {
        "setup_s": median(r["setup_s"] for r in reports),
        "wall_s": median(r["wall_s"] for r in reports),
        "node_slots_per_s": median(r["node_slots"] / r["sim_s"] for r in reports),
        "peak_rss_mb": median(r["rss_mb"] for r in reports),
        "success_frac": 1.0 - failed / attempted,
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics from traced executions, plus any reason the trace
    is inconsistent."""
    median = statistics.median
    first = traced[0]
    problems = []
    exact = ("calls", "tx", "rx", "slots", "exchanges", "telemetry_bytes", "record_bytes")
    for key in exact:
        if any(r[key] != first[key] for r in traced):
            problems.append(f"{key} differs between traced executions")
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (first["calls"][layer], "count")
        metrics[f"{layer}.self_s"] = (median(r["self_s"][layer] for r in traced), "s")
    metrics["sim.total_s"] = (median(r["sim_s"] for r in traced), "s")
    for r in traced:
        residual = r["sim_s"] - r["self_s"]["sim"] - r["sim_children_self_s"]
        if abs(residual) > 1e-6 * max(r["sim_s"], 1.0):
            problems.append(f"sim self time plus children misses sim.total_s by {residual}")
    metrics["comm.rx_per_tx"] = (first["rx"] / first["tx"], "ratio")
    metrics["coordination.exchanges_per_slot"] = (first["exchanges"] / first["slots"], "1/slot")
    telemetry_s = metrics["telemetry.self_s"][0]
    metrics["telemetry.bytes"] = (first["telemetry_bytes"], "B")
    metrics["telemetry.mb_per_s"] = (
        first["telemetry_bytes"] / 1e6 / telemetry_s if telemetry_s else 0.0, "MB/s"
    )
    metrics["sim.record_mb"] = (first["record_bytes"] / 1e6, "MB")
    metrics["trace_overhead_frac"] = (
        median(r["wall_s"] for r in traced) / median(r["wall_s"] for r in untraced) - 1.0,
        "ratio",
    )
    return metrics, problems


def context(workload: str, seed: int, numpy_version: str) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    if not (SRC / "ehctrl" / "__init__.py").is_file() or not SHIPPED_CONFIG.is_file():
        print(f"error: no ehctrl sources under {ROOT}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench-work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        workdir = Path(tmp)
        inputs = make_inputs(args.workload, args.seed, workdir)
        reports, start, index = [], time.monotonic(), 0
        while index < MIN_EXECUTIONS * (2 if args.trace else 1) or (
            time.monotonic() - start < args.seconds
        ):
            traced = bool(args.trace) and index % 2 == 1
            reports.append((traced, execute(args.workload, inputs, workdir, index, traced)))
            index += 1
    try:
        scratch.rmdir()
    except OSError:
        pass

    attempted = sum(r["attempted"] for _, r in reports)
    failed = sum(r["failed"] for _, r in reports)
    completed = [(t, r) for t, r in reports if r["digests"] is not None]
    if not completed:
        print("error: every execution failed", file=sys.stderr)
        return 1
    print(json.dumps({"context": context(args.workload, args.seed, completed[0][1]["numpy"])}))
    print(json.dumps({"digests": completed[0][1]["digests"]}))
    # A sim run whose output differs from the pinned digest (default seed) or
    # from the first execution's (other seeds) counts as failed.
    pinned = json.loads((BENCH / "pinned.json").read_text())[args.workload]
    reference = pinned if args.seed == DEFAULT_SEED else completed[0][1]["digests"]
    mismatched = sum(
        digest != expected
        for _, r in completed
        for digest, expected in zip(r["digests"], reference)
        if digest != "aborted"
    )
    failed += mismatched
    problems = []
    if mismatched:
        problems.append(f"{mismatched} sim runs produced outputs that differ from the reference")

    if args.trace:
        traced = [r for t, r in completed if t]
        untraced = [r for t, r in completed if not t]
        if not traced or not untraced:
            print("error: no traced or no untraced execution completed", file=sys.stderr)
            return 1
        layer_metrics, layer_problems = per_layer(traced, untraced)
        problems += layer_problems
        metrics = layer_metrics
    else:
        values = end_to_end([r for _, r in completed], attempted, failed)
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
