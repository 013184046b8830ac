#!/usr/bin/env python3
"""Paired benchmark of the working tree against a base commit.

Usage (from the repository root):

    python3 scripts/bench_pairs.py --pr N [--base REV] [--pairs 10]
        [--seconds 30] [--seed 1] [--workload NAME ...] [--out PATH]

The base commit (default ``HEAD``, so run it before committing the change,
or pass ``--base HEAD~1`` after) is extracted with ``git archive`` into a
temporary directory ``base``, and the working tree's files (tracked and
untracked, not ignored) are copied beside it into ``tree``. The two names
have the same length, so both sides' paths do too (``peak_rss_mb`` moves
with the length of the path). Neither side has compiled bytecode: every
process runs with ``PYTHONDONTWRITEBYTECODE=1`` and compiles ``ehctrl``
from source on both sides, as in a fresh checkout (a ``__pycache__`` on one
side alone moves its ``setup_s`` and ``peak_rss_mb``; with ``.pyc`` files
``paper-run`` peaks about 0.9 MB higher).

One driver runs every workload. ``launch`` starts one fresh process per
run, in the side's directory with its ``src`` on ``PYTHONPATH``, and
``alternate`` runs each entry of a workload ``--pairs`` times on each side,
base and working tree alternating and the side that goes first swapping
from pair to pair (base first in even pairs), all at the same ``--seconds``
and ``--seed``. For a workload of ``BENCHMARK.json`` the run is
``bench/run.py``; every end-to-end metric that ``BENCHMARK.json`` lists is
reported per side as the per-run values, their median and quartiles,
together with the number of pairs the working tree won in the metric's
better direction.

The ``m-scaling`` pseudo-workload (``--workload m-scaling``, also run by
default) times ``sim.run`` alone in a fresh process per run: µs per slot
over ``M_SCALING_SLOTS`` slots for each (node count, availability) row of
``M_SCALING_ROWS``, with scalar plants and collision probability 0.01. The
rows are always-on at M = 1; always-on, piggyback (B = 20) and random
availability (p = 0.5, B = 10) at M = 2, the modes of the ``seed-batch``
workload; and random availability at M = 3 to 8, 32 and 128. Each probe
first runs ``sim.run`` once untimed, so the timed run is warm: the
``numpy.random`` import and compiling the slot kernel of the row's shape
are not in its µs per slot. It then runs ``sim.run`` once more, untimed,
under ``tracemalloc`` and reports that run's peak traced memory, so the
µs per slot are taken without tracing. Each row also gives, per side, the
median number of cyclic-collector passes per generation during the timed
run, counted through ``gc.callbacks``. The rows are entries of one
alternation: each pair runs every row on both sides. Both sides must
produce the same digest of every record column. The rows at M = 3 to 8
sit on both sides of ``ehctrl.sim.SCALAR_MAX_NODES``, the node count up to
which ``sim.run`` takes its scalar slot core (at most 7).

Two more pseudo-workloads time whole commands:

  tier1   the Tier-1 suite, ``python -m pytest -q -p no:cacheprovider``;
          reports the wall time and pytest's last line (tests passed)
  sweep   ``python -m ehctrl sweep`` over ``SWEEP_VALUES`` of
          ``harvest_mean`` at ``--seed`` (shipped config, 10k slots per
          point); reports the wall time and checks that both sides write
          the same ``sweep.csv``

The ``write`` pseudo-workload times the run-file writers alone. Each run
simulates the shipped config (``configs/paper-sec6.cfg``, 10k slots) at
``--seed`` once, then times ``WRITE_CALLS`` calls of
``telemetry.write_outputs`` into a temporary directory and reports their
median (``write_s``). Both sides must write the same ``slots.csv`` and
``summary.json`` digests. Whole-process wall times carry the machine's
clock switching; this isolates the writing layer.

Results go to ``BENCH_<pr>.json`` (or ``--out``) under the key
``<workload>@seed<seed>`` (``tier1`` for the suite); entries already in the file for other keys are
kept, so workloads and seeds can be run one call at a time. The file also
records both SHAs, the Python and numpy versions and the core count. Only
the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Directory of each side under the temporary directory: names of one length.
SIDE_DIRS = {"base": "base", "change": "tree"}

M_SCALING = "m-scaling"
M_SCALING_MODES = {
    "always-on": {"mode": "always-on", "prob": 1.0, "staleness_bound": 1},
    "piggyback B=20": {"mode": "piggyback", "prob": 0.5, "staleness_bound": 20},
    "random p=0.5 B=10": {"mode": "random", "prob": 0.5, "staleness_bound": 10},
}
# (node count, key of M_SCALING_MODES) of each row.
M_SCALING_ROWS = (
    (1, "always-on"), (2, "always-on"), (2, "piggyback B=20"), (2, "random p=0.5 B=10"),
    *((nodes, "random p=0.5 B=10") for nodes in (3, 4, 5, 6, 7, 8, 32, 128)),
)
M_SCALING_SLOTS = 1000
# Run with the tree's src on sys.path: argv is nodes, slots, seed and the
# availability mapping as JSON; prints the µs per slot of a warm sim.run
# (after one untimed run) and the collections per generation of that run,
# a digest of the run's record and the tracemalloc peak of a third,
# untimed run.
M_SCALING_PROBE = """
import gc, hashlib, json, sys, time, tracemalloc
from ehctrl.config import build_config, read_raw
from ehctrl.sim import run
nodes, slots, seed = map(int, sys.argv[1:4])
raw = read_raw(None)
raw["plants"] = [{"a_open": 1.1, "a_closed": 0.15} if i % 2 else
                 {"a_open": 1.05, "a_closed": 0.1} for i in range(nodes)]
raw["channel"] = {**raw["channel"], "collision_prob": 0.01}
raw["availability"] = json.loads(sys.argv[4])
config = build_config(raw, seed=seed, horizon=slots)
run(config)
collections = [0, 0, 0]
def count(phase, info):
    if phase == "start":
        collections[info["generation"]] += 1
gc.callbacks.append(count)
start = time.perf_counter()
record = run(config).record
elapsed = time.perf_counter() - start
gc.callbacks.remove(count)
digest = hashlib.sha256()
for column in (*record.states, record.lyapunov, record.z, record.transmitted,
               record.received, record.collided, record.h, record.q, record.battery,
               record.harvested, record.phi, record.beta, record.nu):
    digest.update(column.tobytes())
del record
tracemalloc.start()
run(config)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({"us_per_slot": elapsed / slots * 1e6, "digest": digest.hexdigest(),
                  "tracemalloc_peak_mb": peak / 1e6, "gc_collections": collections}))
"""


WRITE = "write"
WRITE_CALLS = 3
# Run with the tree's src on sys.path: argv is config path, seed, calls;
# prints the median seconds of the write_outputs calls and the digest of
# slots.csv and summary.json.
WRITE_PROBE = """
import hashlib, json, statistics, sys, tempfile, time
from pathlib import Path
from ehctrl import telemetry
from ehctrl.config import load_config
from ehctrl.sim import run
config = load_config(sys.argv[1], seed=int(sys.argv[2]))
result = run(config)
times = []
with tempfile.TemporaryDirectory(prefix="bench-write-") as out:
    for _ in range(int(sys.argv[3])):
        start = time.perf_counter()
        telemetry.write_outputs(result.record, result.summary, out)
        times.append(time.perf_counter() - start)
    digest = " ".join(hashlib.sha256((Path(out) / name).read_bytes()).hexdigest()
                      for name in ("slots.csv", "summary.json"))
print(json.dumps({"write_s": statistics.median(times), "digest": digest}))
"""

TIER1 = "tier1"
SWEEP = "sweep"
SWEEP_VALUES = "0.2,0.3,0.4,0.5,0.6"


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
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def copy_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored files."""
    for name in git("ls-files", "-z", "-co", "--exclude-standard").split("\0"):
        if name and (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def launch(tree: Path, argv: list) -> tuple[float, str]:
    """Wall time and stdout of ``python <argv>`` run in ``tree`` with its
    ``src`` on ``PYTHONPATH`` and no bytecode written; exits with the tail
    of its output if it fails."""
    argv = [str(arg) for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=tree, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"python {' '.join(argv)[:200]} failed in {tree}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return wall, proc.stdout


def bench_once(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """One ``bench/run.py`` run on ``tree``: its result and context lines."""
    _, out = launch(tree, ["bench/run.py", "--workload", workload,
                           "--seconds", seconds, "--seed", seed])
    lines = [line for line in out.splitlines() if line.startswith("{")]
    if not lines:
        raise SystemExit(f"bench/run.py printed no result line in {tree}:\n{out[-2000:]}")
    result = json.loads(lines[-1])
    result["context"] = json.loads(lines[0])["context"]
    return result


def probe(tree: Path, script: str, *args) -> dict:
    """The JSON last line of ``script`` run with ``args`` on ``tree``."""
    return json.loads(launch(tree, ["-c", script, *args])[1].splitlines()[-1])


def write_once(tree: Path, seed: int) -> dict:
    """One ``WRITE_PROBE`` run on ``tree`` at the shipped config."""
    result = probe(tree, WRITE_PROBE, tree / "configs" / "paper-sec6.cfg", seed, WRITE_CALLS)
    result["last_line"] = f"slots.csv, summary.json sha256 {result['digest']}"
    return result


def tier1_once(tree: Path, seed: int) -> dict:
    wall, out = launch(tree, ["-m", "pytest", "-q", "-p", "no:cacheprovider"])
    return {"wall_s": wall, "last_line": out.strip().splitlines()[-1]}


def sweep_once(tree: Path, seed: int) -> dict:
    """One 5-point ``ehctrl sweep``, with the digest of its ``sweep.csv``."""
    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as out:
        wall, _ = launch(tree, [
            "-m", "ehctrl", "sweep", "--param", "harvest_mean", "--values", SWEEP_VALUES,
            "--seed", seed, "--out", out,
        ])
        digest = hashlib.sha256((Path(out) / "sweep.csv").read_bytes()).hexdigest()
    return {"wall_s": wall, "digest": digest, "last_line": f"sweep.csv sha256 {digest}"}


# The whole-command and writer pseudo-workloads: the run and its metric.
TIMED = {WRITE: (write_once, "write_s"), SWEEP: (sweep_once, "wall_s"),
         TIER1: (tier1_once, "wall_s")}


def alternate(name: str, sides: dict, pairs: int, entries: dict, show) -> dict:
    """Run every entry's ``once(tree)`` (``entries`` maps a label to it)
    ``pairs`` times on each side, the base side first in even pairs and the
    change side first in odd ones; the results per label and side.
    ``show(result)`` formats one result for the progress line."""
    runs = {label: {side: [] for side in sides} for label in entries}
    for k in range(pairs):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for label, once in entries.items():
            for side in order:
                runs[label][side].append(once(sides[side]))
            print(f"{name} pair {k + 1}/{pairs}{label}: " + ", ".join(
                f"{side} {show(runs[label][side][-1])}" for side in order
            ), file=sys.stderr)
    return runs


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def paired(base: list[float], change: list[float], unit: str, better: str) -> dict:
    """Per-side statistics of one metric over the pairs, and the pairs won."""
    wins = sum((c > b) if better == "higher" else (c < b) for b, c in zip(base, change))
    b_stats, c_stats = summarize(base), summarize(change)
    return {
        "unit": unit,
        "better": better,
        "base": b_stats,
        "change": c_stats,
        "change_over_base": c_stats["median"] / b_stats["median"] if b_stats["median"] else None,
        "pair_wins": wins,
        "pairs": len(base),
        "median_gap_exceeds_base_iqr": abs(c_stats["median"] - b_stats["median"]) > b_stats["iqr"],
    }


def measure(workload: str, sides: dict, args, spec: dict, report: dict) -> dict:
    """Alternate ``workload``'s runs on both sides and shape its
    ``BENCH_<pr>.json`` entry; a ``bench/run.py`` workload is measured by
    the end-to-end metrics of ``spec`` (``BENCHMARK.json``) and also
    records the numpy version in ``report``."""
    if workload == M_SCALING:
        runs = alternate(M_SCALING, sides, args.pairs, {
            f" M={nodes} {mode}": lambda tree, nodes=nodes, mode=mode: probe(
                tree, M_SCALING_PROBE, nodes, M_SCALING_SLOTS, args.seed,
                json.dumps(M_SCALING_MODES[mode]))
            for nodes, mode in M_SCALING_ROWS
        }, lambda r: f"{r['us_per_slot']:.1f} us/slot")
        rows = [{
            "nodes": nodes,
            "availability": mode,
            "same_digest": len({r["digest"] for r in row["base"] + row["change"]}) == 1,
            **{name: paired([r[name] for r in row["base"]],
                            [r[name] for r in row["change"]], unit, "lower")
               for name, unit in (("us_per_slot", "us"), ("tracemalloc_peak_mb", "MB"))},
            "gc_collections": {
                side: [statistics.median(r["gc_collections"][g] for r in row[side])
                       for g in range(3)]
                for side in ("base", "change")
            },
        } for (nodes, mode), row in zip(M_SCALING_ROWS, runs.values())]
        return {"workload": M_SCALING, "seed": args.seed, "slots": M_SCALING_SLOTS,
                "all_correct": all(row["same_digest"] for row in rows), "rows": rows}
    if workload in TIMED:
        once, metric = TIMED[workload]
        runs = alternate(workload, sides, args.pairs, {"": lambda tree: once(tree, args.seed)},
                         lambda r: f"{r[metric]:.3f} s")[""]
        return {
            "workload": workload,
            "seed": args.seed,
            "all_correct": len({r.get("digest") for side in sides for r in runs[side]}) == 1,
            "last_line": {side: runs[side][-1]["last_line"] for side in sides},
            "metrics": {metric: paired([r[metric] for r in runs["base"]],
                                       [r[metric] for r in runs["change"]], "s", "lower")},
        }
    runs = alternate(
        workload, sides, args.pairs,
        {"": lambda tree: bench_once(tree, workload, args.seconds, args.seed)},
        lambda r: f"node_slots_per_s={r['metrics']['node_slots_per_s']['value']:.0f}",
    )[""]
    report["numpy"] = runs["change"][0]["context"]["numpy"]
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "all_correct": all(r["correct"] for side in sides for r in runs[side]),
        "metrics": {
            metric["name"]: paired(
                [r["metrics"][metric["name"]]["value"] for r in runs["base"]],
                [r["metrics"][metric["name"]]["value"] for r in runs["change"]],
                metric["unit"], metric["better"],
            )
            for metric in spec["end_to_end"]
        },
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec.get("run_seconds", 30))
    parser.add_argument("--seed", type=int, default=1)
    names = [w["name"] for w in spec["workloads"]] + [M_SCALING, WRITE, SWEEP, TIER1]
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--out", type=Path, help="output path (default: BENCH_<pr>.json)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
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
        sides = {side: Path(tmp) / name for side, name in SIDE_DIRS.items()}
        extract(args.base, sides["base"])
        copy_worktree(sides["change"])
        for workload in args.workload or names:
            key = TIER1 if workload == TIER1 else f"{workload}@seed{args.seed}"
            report["results"][key] = measure(workload, sides, args, spec, report)
            out_path.write_text(json.dumps(report, indent=1) + "\n")
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
