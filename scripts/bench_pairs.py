#!/usr/bin/env python3
"""Paired benchmark of the working tree against a base commit.

Usage (from the repository root):

    python3 scripts/bench_pairs.py --pr N [--base REV] [--pairs 10]
        [--seconds 30] [--seed 1] [--workload NAME ...] [--out PATH]

The base commit (default ``HEAD``, so run it before committing the change,
or pass ``--base HEAD~1`` after) is extracted with ``git archive`` into a
temporary directory. For each workload, ``bench/run.py`` then runs
``--pairs`` times on each side, base and working tree alternating and the
side that goes first swapping from pair to pair, all at the same
``--seconds`` and ``--seed``. Every end-to-end metric that
``BENCHMARK.json`` lists is reported per side as the per-run values, their
median and quartiles, together with the number of pairs the working tree
won in the metric's better direction.

The ``m-scaling`` pseudo-workload (``--workload m-scaling``, also run by
default) times ``sim.run`` alone in a fresh process per run: µs per slot
over ``M_SCALING_SLOTS`` slots at each node count in ``M_SCALING_NODES``,
always-on at M = 2 and random availability (p = 0.5, B = 10) above, scalar
plants and collision probability 0.01. It runs paired like the workloads,
alternating sides per pair and node count, and checks that both sides
produce the same record digest.

Results go to ``BENCH_<pr>.json`` (or ``--out``) under the key
``<workload>@seed<seed>``; entries already in the file for other keys are
kept, so workloads and seeds can be run one call at a time. The file also
records both SHAs, the Python and numpy versions and the core count. Only
the standard library is used.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

M_SCALING = "m-scaling"
M_SCALING_NODES = (2, 8, 32, 128)
M_SCALING_SLOTS = 1000
# Run with the tree's src on sys.path: argv is nodes, slots, seed; prints
# the µs per slot of sim.run and a digest of the run's record.
M_SCALING_PROBE = """
import hashlib, json, sys, time
from ehctrl.config import build_config, read_raw
from ehctrl.sim import run
nodes, slots, seed = map(int, sys.argv[1:])
raw = read_raw(None)
raw["plants"] = [{"a_open": 1.1, "a_closed": 0.15} if i % 2 else
                 {"a_open": 1.05, "a_closed": 0.1} for i in range(nodes)]
raw["channel"] = {**raw["channel"], "collision_prob": 0.01}
raw["availability"] = (
    {"mode": "always-on", "prob": 1.0, "staleness_bound": 1} if nodes == 2
    else {"mode": "random", "prob": 0.5, "staleness_bound": 10})
config = build_config(raw, seed=seed, horizon=slots)
start = time.perf_counter()
record = run(config).record
elapsed = time.perf_counter() - start
digest = hashlib.sha256()
for column in (*record.states, record.z, record.received, record.collided,
               record.battery, record.phi, record.beta, record.nu):
    digest.update(column.tobytes())
print(json.dumps({"us_per_slot": elapsed / slots * 1e6, "digest": digest.hexdigest()}))
"""


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def change_id() -> str:
    """HEAD's SHA, suffixed ``+dirty`` when tracked files differ from it."""
    sha = git("rev-parse", "HEAD")
    return sha + "+dirty" if git("status", "--porcelain", "--untracked-files=no") else sha


def extract(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    tar_path = dest.parent / "base.tar"
    tar_path.write_bytes(archive)
    with tarfile.open(tar_path) as tar:
        tar.extractall(dest, filter="data")
    tar_path.unlink()


def bench_once(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """One ``bench/run.py`` run on ``tree``: its result and context lines."""
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench/run.py failed in {tree}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["context"] = json.loads(lines[0])["context"]
    return result


def probe_once(tree: Path, nodes: int, seed: int) -> dict:
    """One ``M_SCALING_PROBE`` run on ``tree`` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", M_SCALING_PROBE, str(nodes), str(M_SCALING_SLOTS), str(seed)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"m-scaling probe failed in {tree}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def paired(base: list[float], change: list[float], unit: str, better: str) -> dict:
    """Per-side statistics of one metric over the pairs, and the pairs won."""
    higher = better == "higher"
    wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
    b_stats, c_stats = summarize(base), summarize(change)
    delta = c_stats["median"] - b_stats["median"]
    return {
        "unit": unit,
        "better": better,
        "base": b_stats,
        "change": c_stats,
        "change_over_base": (
            c_stats["median"] / b_stats["median"] if b_stats["median"] else None
        ),
        "pair_wins": wins,
        "pairs": len(base),
        "median_gap_exceeds_base_iqr": abs(delta) > b_stats["iqr"],
    }


def compare(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    return {
        spec["name"]: paired(
            [b["metrics"][spec["name"]]["value"] for b, _ in pairs],
            [c["metrics"][spec["name"]]["value"] for _, c in pairs],
            spec["unit"], spec["better"],
        )
        for spec in metrics
    }


def m_scaling(sides: dict, pairs: int, seed: int) -> dict:
    """Paired µs-per-slot rows at every node count in ``M_SCALING_NODES``."""
    runs = {(nodes, side): [] for nodes in M_SCALING_NODES for side in sides}
    for k, nodes in itertools.product(range(pairs), M_SCALING_NODES):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for side in order:
            runs[nodes, side].append(probe_once(sides[side], nodes, seed))
        print(f"{M_SCALING} pair {k + 1}/{pairs} M={nodes}: " + ", ".join(
            f"{side} {runs[nodes, side][-1]['us_per_slot']:.1f} us/slot" for side in order
        ), file=sys.stderr)
    rows = []
    for nodes in M_SCALING_NODES:
        base, change = runs[nodes, "base"], runs[nodes, "change"]
        rows.append({
            "nodes": nodes,
            "availability": "always-on" if nodes == 2 else "random p=0.5 B=10",
            "same_digest": len({r["digest"] for r in base + change}) == 1,
            "us_per_slot": paired([r["us_per_slot"] for r in base],
                                  [r["us_per_slot"] for r in change], "us", "lower"),
        })
    return {
        "workload": M_SCALING,
        "seed": seed,
        "slots": M_SCALING_SLOTS,
        "all_correct": all(row["same_digest"] for row in rows),
        "rows": rows,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec.get("run_seconds", 30))
    parser.add_argument("--seed", type=int, default=1)
    names = [w["name"] for w in spec["workloads"]] + [M_SCALING]
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--out", type=Path, help="output path (default: BENCH_<pr>.json)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    workloads = args.workload or names
    out_path = args.out or ROOT / f"BENCH_{args.pr}.json"

    report = json.loads(out_path.read_text()) if out_path.exists() else {}
    report.update({
        "base_sha": git("rev-parse", args.base),
        "change_sha": change_id(),
        "python": platform.python_version(),
        "cores": len(os.sched_getaffinity(0)),
        "command": "python3 bench/run.py --workload W --seconds S --seed N",
    })
    report.setdefault("results", {})

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base_tree = Path(tmp) / "base"
        base_tree.mkdir()
        extract(args.base, base_tree)
        sides = {"base": base_tree, "change": ROOT}
        for workload in workloads:
            if workload == M_SCALING:
                report["results"][f"{M_SCALING}@seed{args.seed}"] = m_scaling(
                    sides, args.pairs, args.seed
                )
                out_path.write_text(json.dumps(report, indent=1) + "\n")
                continue
            pairs = []
            for k in range(args.pairs):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                run = {side: bench_once(sides[side], workload, args.seconds, args.seed)
                       for side in order}
                pairs.append((run["base"], run["change"]))
                rates = (run[side]["metrics"]["node_slots_per_s"]["value"] for side in order)
                print(f"{workload} pair {k + 1}/{args.pairs}: " + ", ".join(
                    f"{side} node_slots_per_s={rate:.0f}" for side, rate in zip(order, rates)
                ), file=sys.stderr)
            report["numpy"] = pairs[0][1]["context"]["numpy"]
            report["results"][f"{workload}@seed{args.seed}"] = {
                "workload": workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "all_correct": all(b["correct"] and c["correct"] for b, c in pairs),
                "metrics": compare(pairs, spec["end_to_end"]),
            }
            out_path.write_text(json.dumps(report, indent=1) + "\n")
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
