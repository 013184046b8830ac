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

Results go to ``BENCH_<pr>.json`` (or ``--out``) under the key
``<workload>@seed<seed>``; entries already in the file for other keys are
kept, so workloads and seeds can be run one call at a time. The file also
records both SHAs, the Python and numpy versions and the core count. Only
the standard library is used.
"""

from __future__ import annotations

import argparse
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


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    out = {}
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        b_stats, c_stats = summarize(base), summarize(change)
        delta = c_stats["median"] - b_stats["median"]
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "base": b_stats,
            "change": c_stats,
            "change_over_base": (
                c_stats["median"] / b_stats["median"] if b_stats["median"] else None
            ),
            "pair_wins": wins,
            "pairs": len(pairs),
            "median_gap_exceeds_base_iqr": abs(delta) > b_stats["iqr"],
        }
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec.get("run_seconds", 30))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--out", type=Path, help="output path (default: BENCH_<pr>.json)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
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
