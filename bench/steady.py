#!/usr/bin/env python3
"""Steadiness self-test of the benchmark.

    python3 bench/steady.py runs --workload W [--workload W ...] \\
        [--seeds 10] [--seconds S] > set.json
        One untraced run per seed (1..N) per workload. Prints, per metric,
        the median and the quartile spread (q3 - q1) / median next to the
        metric's bound; the last line holds every value as JSON.

    python3 bench/steady.py compare A.json B.json
        Checks that no metric's median in B is worse than in A by more than
        the metric's bound.

    python3 bench/steady.py counts --workload W [--seed N] [--seconds S]
        Two traced runs at one seed; the exact counts must repeat exactly.

Exits 1 when a check fails. Spreads are held to a third of the bound,
except for setup_s, whose spread is only reported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}
EXACT_SUFFIXES = (".calls", ".rx_per_tx", ".exchanges_per_slot", ".bytes", ".record_mb")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect\n{proc.stderr}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cmd_runs(args) -> bool:
    ok = True
    collected = {}
    for workload in args.workload:
        runs = [bench(workload, seed, args.seconds, 0) for seed in range(1, args.seeds + 1)]
        collected[workload] = {name: [r[name] for r in runs] for name in runs[0]}
        for name, values in collected[workload].items():
            bound = BOUNDS[name]["bound"]
            s = spread(values)
            steady = name == "setup_s" or s <= bound / 3
            ok &= steady
            print(f"{workload:11} {name:17} median {statistics.median(values):<12.6g}"
                  f" spread {s:.4f}  bound {bound}  {'ok' if steady else 'UNSTEADY'}")
    print(json.dumps(collected))
    return ok


def cmd_compare(args) -> bool:
    first, second = (json.loads(Path(p).read_text().splitlines()[-1]) for p in args.sets)
    ok = True
    for workload, metrics in first.items():
        for name, values in metrics.items():
            a = statistics.median(values)
            b = statistics.median(second[workload][name])
            worse = (b - a) / a if BOUNDS[name]["better"] == "lower" else (a - b) / a
            agree = worse <= BOUNDS[name]["bound"]
            ok &= agree
            print(f"{workload:11} {name:17} {a:<12.6g} -> {b:<12.6g} worse by {worse:+.4f}"
                  f"  bound {BOUNDS[name]['bound']}  {'ok' if agree else 'DRIFT'}")
    return ok


def cmd_counts(args) -> bool:
    a, b = (bench(args.workload, args.seed, args.seconds, 1) for _ in range(2))
    ok = True
    for name in a:
        if name.endswith(EXACT_SUFFIXES):
            same = a[name] == b[name]
            ok &= same
            print(f"{args.workload:11} {name:33} {a[name]!r:>12} {b[name]!r:>12}"
                  f"  {'same' if same else 'DIFFERENT'}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description="steadiness self-test of the benchmark")
    sub = parser.add_subparsers(dest="command", required=True)
    p_runs = sub.add_parser("runs")
    p_runs.add_argument("--workload", action="append", required=True)
    p_runs.add_argument("--seeds", type=int, default=10)
    p_runs.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("sets", nargs=2)
    p_cnt = sub.add_parser("counts")
    p_cnt.add_argument("--workload", required=True)
    p_cnt.add_argument("--seed", type=int, default=1)
    p_cnt.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args()
    handler = {"runs": cmd_runs, "compare": cmd_compare, "counts": cmd_counts}[args.command]
    return 0 if handler(args) else 1


if __name__ == "__main__":
    sys.exit(main())
