"""CSV and JSON persistence of run telemetry.

File layout (stable):

  slots.csv     one row per (slot, node):
                slot, node, x1..xN, V, z, tx, gamma, h, q, b, e,
                phi, nu_1..nu_M, beta
  summary.csv   one row per node with final averages and violation counts
  summary.json  the same summary as structured data
  fig_state.csv / fig_battery.csv / fig_ctrl_perf.csv /
  fig_energy_balance.csv / fig_dual_means.csv / fig_prob_bars.csv /
  fig_schedule_window.csv
                plot-ready aggregates (state traces, battery traces, running
                control-performance and energy-balance curves, running
                multiplier means, final probability bars, and a short
                per-slot schedule window with collision marks)

The record holds raw per-slot columns only: the running averages are
computed here with :func:`ehctrl.sim.running_mean`, and the probability bars
come from the summary. Every CSV, ``sweep.csv`` included, is one mapping from
header to column handed to :func:`write_csv`, which formats ``WRITE_CHUNK``
rows at a time. Floats are written with shortest round-trip repr so equal
runs produce byte-identical files; ``summary.json`` writes a non-finite value
(the summary of a run aborted on a non-finite state) as ``null``, so the
file stays valid JSON, while ``summary.csv`` keeps ``inf``/``nan``.

:func:`write_outputs` uses both cores: a forked child process writes
``slots.csv``, the largest file, while the caller writes every other file.
The child only formats and writes (``tolist``, ``divmod``, ``full``, ``str``);
every BLAS/LAPACK call (the state norms of fig_state.csv) stays in the
caller, since a forked child must not enter numpy's BLAS threads. The child
is always reaped before :func:`write_outputs` returns or raises.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import sys
from pathlib import Path

import numpy as np

from .errors import BREACH_KINDS
from .sim import Summary, TelemetryRecord, running_mean

# Rows formatted per step; bounds the cell strings held at once to
# O(WRITE_CHUNK * columns) whatever the horizon.
WRITE_CHUNK = 256

_SUMMARY_FIELDS = (
    "p_required",
    "p_tx",
    "p_rx_analytic",
    "p_rx_empirical",
    "ctrl_perf",
    "energy_balance",
    "battery_final",
)
_PROB_BARS = ("node", "p_required", "p_tx", "p_rx_analytic", "p_rx_empirical")


def _cells(values) -> list[str]:
    """Format one slice of a column: bools as 1/0, every other value as the
    ``str`` of its Python value (for a float, its shortest round-trip repr)."""
    if isinstance(values, np.ndarray):
        if values.dtype == bool:
            return ["1" if v else "0" for v in values.tolist()]
        values = values.tolist()
    return [str(v) for v in values]


def write_csv(path, columns: dict) -> None:
    """Write ``columns``, a mapping from header to an equal-length column (a
    list, an array, or anything that slices into one), as one CSV file."""
    rows = len(next(iter(columns.values())))
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for lo in range(0, rows, WRITE_CHUNK):
            cells = [_cells(column[lo:lo + WRITE_CHUNK]) for column in columns.values()]
            fh.write("\n".join(map(",".join, zip(*cells, strict=True))) + "\n")


class _StateCells:
    """Column ``x{k+1}`` of slots.csv, built per slice of rows: entry k of the
    row's plant state, blank where that plant has fewer dimensions."""

    def __init__(self, states: list[np.ndarray], k: int):
        self.states = states
        self.k = k

    def __len__(self) -> int:
        return len(self.states) * len(self.states[0])

    def __getitem__(self, rows: slice) -> np.ndarray:
        slot, node = np.divmod(np.arange(*rows.indices(len(self))), len(self.states))
        cells = np.full(slot.size, "", dtype=object)
        for i, x in enumerate(self.states):
            if x.shape[1] > self.k:
                mine = node == i
                cells[mine] = x[slot[mine], self.k]
        return cells


def _slot_node(slots: np.ndarray, count: int) -> dict:
    """The slot and node columns of files with one row per (slot, node)."""
    return {"slot": np.repeat(slots, count), "node": np.tile(np.arange(1, count + 1), slots.size)}


def _per_node(name: str, values: np.ndarray) -> dict:
    """Columns ``{name}_1..{name}_M`` of a (T, M) array."""
    return {f"{name}_{i + 1}": values[:, i] for i in range(values.shape[1])}


def write_slots_csv(record: TelemetryRecord, path) -> None:
    """Per-slot, per-node raw telemetry."""
    T, M = record.horizon, record.count
    n_max = max((s.shape[1] for s in record.states), default=1)
    per_row = {
        name: getattr(record, field).reshape(-1)
        for name, field in (
            ("V", "lyapunov"), ("z", "z"), ("tx", "transmitted"), ("gamma", "received"),
            ("h", "h"), ("q", "q"), ("b", "battery"), ("e", "harvested"), ("phi", "phi"),
        )
    }
    nu = record.nu.reshape(T * M, M)
    write_csv(path, {
        **_slot_node(np.arange(T), M),
        **{f"x{k + 1}": _StateCells(record.states, k) for k in range(n_max)},
        **per_row,
        **{f"nu_{j + 1}": nu[:, j] for j in range(M)},
        "beta": record.beta.reshape(-1),
    })


def summary_dict(summary: Summary) -> dict:
    return {
        "horizon": summary.horizon,
        "violations": {k: summary.violations.get(k, 0) for k in BREACH_KINDS},
        "nodes": [
            {
                "node": entry.node + 1,
                **{name: float(getattr(entry, name)) for name in _SUMMARY_FIELDS},
                "max_nu": [float(v) for v in entry.max_nu],
            }
            for entry in summary.nodes
        ],
    }


def _state_trace(x: np.ndarray) -> np.ndarray:
    """Scalar trace of one plant: the state itself when scalar, else its norm."""
    if x.shape[1] == 1:
        return x[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged state is inf
        return np.linalg.norm(x, axis=1)


def _json_finite(value):
    """``value`` with every non-finite float inside it replaced by ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_finite(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_finite(item) for item in value]
    return value


def _fork_slots_writer(record: TelemetryRecord, path: Path) -> tuple[int, int]:
    """Fork a child that writes slots.csv and exits; return its pid and the
    read end of a pipe that carries the child's exception, pickled, if
    writing failed (nothing if it succeeded). The child never returns."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    code = 1
    try:
        os.close(read_fd)
        try:
            write_slots_csv(record, path)
            code = 0
        except BaseException as exc:
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(exc))
    finally:
        os._exit(code)


def _reap(pid: int, read_fd: int, path: Path) -> BaseException | None:
    """Wait for the slots.csv child; the exception it sent, if any, or an
    error if it did not exit 0 (an exception that would not pickle, or a
    signal)."""
    with os.fdopen(read_fd, "rb") as pipe:
        failure = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if failure:
        return pickle.loads(failure)
    if code:
        return ChildProcessError(f"writing {path} failed: its process ended with {code}")
    return None


def write_outputs(
    record: TelemetryRecord, summary: Summary, outdir, window: tuple[int, int]
) -> None:
    """Write slots.csv, summary.csv, summary.json and the plot-ready fig_*.csv
    aggregates of one run into ``outdir``; ``window`` is the inclusive slot
    range of fig_schedule_window.csv.

    A child forked here writes slots.csv while this process writes the other
    nine files; both use the same writers, so the bytes do not depend on
    the split. The child calls no BLAS or LAPACK routine: it only formats
    the record's columns, and the norms and running means stay here. The
    child ends with ``os._exit`` and is always reaped before this function
    returns or raises, so no process outlives the call. An error of this
    process's own writes is raised first; otherwise an exception the child
    raised is re-raised here as it was (say ``IsADirectoryError`` naming
    slots.csv), and a child that ends any other way raises
    ``ChildProcessError``."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "slots.csv"
    pid, read_fd = _fork_slots_writer(record, path)
    try:
        _write_aggregates(record, summary, outdir, window)
    finally:
        failure = _reap(pid, read_fd, path)
    if failure is not None:
        raise failure


def _write_aggregates(
    record: TelemetryRecord, summary: Summary, outdir: Path, window: tuple[int, int]
) -> None:
    """Every output file of :func:`write_outputs` but slots.csv."""
    T, M = record.horizon, record.count
    table = summary_dict(summary)
    nodes = table["nodes"]

    write_csv(outdir / "summary.csv", {
        **{name: [node[name] for node in nodes] for name in ("node", *_SUMMARY_FIELDS)},
        **{f"max_nu_{j + 1}": [node["max_nu"][j] for node in nodes] for j in range(len(nodes))},
        **{f"{k}_violations": [table["violations"][k]] * len(nodes) for k in BREACH_KINDS},
    })
    with open(outdir / "summary.json", "w", newline="\n") as fh:
        json.dump(_json_finite(table), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

    slot = {"slot": np.arange(T)}
    write_csv(outdir / "fig_state.csv", {
        **slot, **{f"x_{i + 1}": _state_trace(x) for i, x in enumerate(record.states)},
    })
    write_csv(outdir / "fig_battery.csv", {**slot, **_per_node("b", record.battery)})
    write_csv(outdir / "fig_ctrl_perf.csv", {
        **slot, **_per_node("ctrl_perf", running_mean(record.lyapunov)),
    })
    write_csv(outdir / "fig_energy_balance.csv", {
        **slot, **_per_node("balance", running_mean(record.harvested - record.spend)),
    })
    nu_mean = running_mean(record.nu)
    write_csv(outdir / "fig_dual_means.csv", {
        **slot,
        **{f"nu_mean_{i + 1}_{j + 1}": nu_mean[:, i, j] for i in range(M) for j in range(M)},
    })
    write_csv(outdir / "fig_prob_bars.csv", {
        name: [node[name] for node in nodes] for name in _PROB_BARS
    })
    lo, hi = max(0, window[0]), min(T, window[1] + 1)
    write_csv(outdir / "fig_schedule_window.csv", {
        **_slot_node(np.arange(lo, hi), M),
        "q": record.q[lo:hi].reshape(-1),
        "tx": record.transmitted[lo:hi].reshape(-1),
        "collided": record.collided[lo:hi].reshape(-1),
    })
