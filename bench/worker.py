"""One workload execution in a fresh process.

Usage: python worker.py JOB_JSON RESULT_JSON

The job names the workload, its config files with their seeds, an output
directory and whether to trace every layer. The result holds the time the
first slot started, counters and output digests, which the parent
aggregates. ``ehctrl`` must be importable (the parent puts the checkout's
``src`` first on ``PYTHONPATH``).
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import ehctrl
from ehctrl import cli, config, sim, telemetry
from layers import Spans, rebind

# Held before any wrapper is installed, so output checks stay untraced.
summary_dict = telemetry.summary_dict


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _summary_digest(summary) -> str:
    return _sha256(json.dumps(summary_dict(summary), sort_keys=True).encode())


def _record_bytes(record) -> int:
    total = 0
    for value in vars(record).values():
        arrays = value if isinstance(value, (list, tuple)) else [value]
        total += sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    return total


def _top_level(layer: str, name: str) -> bool:
    """The calls end-to-end timing needs: config loading, the slot loop and
    the telemetry writers."""
    return (
        (layer == "config" and name in ("load_config", "build_config"))
        or (layer == "sim" and name == "run")
        or (layer == "telemetry" and name.startswith("write_"))
    )


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    spans = Spans()
    if job["trace"]:
        spans.install()
    else:
        spans.install(_top_level)

    # Every sim.run call passes through here, including the one cli makes.
    # The first entry ends setup. Only counters are kept, never a record, so
    # peak memory is that of one run.
    seen = {"setup_end": None, "node_slots": 0, "record_bytes": 0, "tx": 0, "rx": 0, "slots": 0}
    traced_run = sim.run

    def capture(*args, **kwargs):
        if seen["setup_end"] is None:
            seen["setup_end"] = time.monotonic()
        result = traced_run(*args, **kwargs)
        record = result.record
        seen["node_slots"] += record.horizon * record.count
        seen["record_bytes"] = max(seen["record_bytes"], _record_bytes(record))
        seen["tx"] += int(record.transmitted.sum())
        seen["rx"] += int(record.received.sum())
        seen["slots"] += record.horizon
        return result

    rebind({id(traced_run): capture})

    digests, failed = [], 0
    out = Path(job["out"])
    if job["workload"] == "paper-run":
        (path, seed), = job["configs"]
        code = cli.main(["run", "--config", path, "--seed", str(seed), "--out", str(out)])
        if code == cli.EXIT_OK:
            digests = [{name: _sha256((out / name).read_bytes()) for name in ("slots.csv", "summary.json")}]
        else:
            failed = 1
    else:
        configs = [config.load_config(path, seed=seed) for path, seed in job["configs"]]
        for cfg in configs:
            try:
                digests.append(_summary_digest(sim.run(cfg).summary))
            except sim.SimulationAborted:
                digests.append("aborted")
                failed += 1
    if seen["setup_end"] is None:
        print("no simulation started", file=sys.stderr)
        return 1

    report = {
        **seen,
        "ehctrl_file": ehctrl.__file__,
        "numpy": np.__version__,
        "sim_s": spans.sim_inclusive_s,
        "exchanges": spans.exchanges,
        "telemetry_bytes": sum(f.stat().st_size for f in out.glob("*")) if out.exists() else 0,
        "digests": digests,
        "attempted": len(job["configs"]),
        "failed": failed,
        "calls": spans.calls,
        "self_s": spans.self_s,
        "sim_children_self_s": spans.under_sim_self_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path(result_path).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
