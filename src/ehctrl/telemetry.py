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

:func:`write_outputs` writes the three run files (``summary.csv``,
``summary.json``, then ``slots.csv``) and :func:`write_figures` the seven
``fig_*.csv`` files, each in the calling process.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import BREACH_KINDS
from .sim import SUMMARY_FIELDS, Summary, TelemetryRecord, running_mean

# Rows formatted per step; bounds the cell strings held at once to
# O(WRITE_CHUNK * columns) whatever the horizon.
WRITE_CHUNK = 256

_PROB_BARS = ("p_required", "p_tx", "p_rx_analytic", "p_rx_empirical")


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


def _summary_columns(summary: Summary, names) -> dict:
    """The node column and the named (M,) columns of ``summary``."""
    return {"node": np.arange(1, summary.p_tx.size + 1),
            **{name: getattr(summary, name) for name in names}}


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
    """``summary`` as JSON-ready data: one mapping per node."""
    columns = {name: getattr(summary, name).tolist() for name in SUMMARY_FIELDS}
    return {
        "horizon": summary.horizon,
        "violations": dict(summary.violations),
        "nodes": [
            {"node": i + 1, **{name: column[i] for name, column in columns.items()},
             "max_nu": max_nu}
            for i, max_nu in enumerate(summary.max_nu.tolist())
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


def write_outputs(record: TelemetryRecord, summary: Summary, outdir) -> None:
    """Write summary.csv, summary.json and slots.csv of one run into
    ``outdir``. The summaries go first, so a failing slots.csv still leaves
    them."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    count = summary.p_tx.size
    write_csv(outdir / "summary.csv", {
        **_summary_columns(summary, SUMMARY_FIELDS),
        **_per_node("max_nu", summary.max_nu),
        **{f"{k}_violations": [summary.violations[k]] * count for k in BREACH_KINDS},
    })
    with open(outdir / "summary.json", "w", newline="\n") as fh:
        json.dump(_json_finite(summary_dict(summary)), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
    write_slots_csv(record, outdir / "slots.csv")


def write_figures(
    record: TelemetryRecord, summary: Summary, outdir, window: tuple[int, int]
) -> None:
    """Write the plot-ready fig_*.csv aggregates of one run into ``outdir``;
    ``window`` is the inclusive slot range of fig_schedule_window.csv."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    T, M = record.horizon, record.count
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
    write_csv(outdir / "fig_prob_bars.csv", _summary_columns(summary, _PROB_BARS))
    lo, hi = max(0, window[0]), min(T, window[1] + 1)
    write_csv(outdir / "fig_schedule_window.csv", {
        **_slot_node(np.arange(lo, hi), M),
        "q": record.q[lo:hi].reshape(-1),
        "tx": record.transmitted[lo:hi].reshape(-1),
        "collided": record.collided[lo:hi].reshape(-1),
    })
