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

Floats are written with shortest round-trip repr so equal runs produce
byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .sim import Summary, TelemetryRecord


def _fmt(value) -> str:
    return repr(float(value))


def _fmt_bool(value) -> str:
    return "1" if value else "0"


def _write_rows(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_slots_csv(record: TelemetryRecord, path) -> None:
    """Per-slot, per-node raw telemetry."""
    path = Path(path)
    T, M = record.horizon, record.count
    n_max = max((s.shape[1] for s in record.states), default=1) if M else 1
    header = (
        ["slot", "node"]
        + [f"x{k + 1}" for k in range(n_max)]
        + ["V", "z", "tx", "gamma", "h", "q", "b", "e", "phi"]
        + [f"nu_{j + 1}" for j in range(M)]
        + ["beta"]
    )

    def rows():
        for t in range(T):
            for i in range(M):
                x = record.states[i][t]
                xs = [_fmt(x[k]) if k < x.size else "" for k in range(n_max)]
                yield (
                    [str(t), str(i + 1)]
                    + xs
                    + [
                        _fmt(record.lyapunov[t, i]),
                        _fmt(record.z[t, i]),
                        _fmt_bool(record.transmitted[t, i]),
                        _fmt_bool(record.received[t, i]),
                        _fmt(record.h[t, i]),
                        _fmt(record.q[t, i]),
                        _fmt(record.battery[t, i]),
                        _fmt(record.harvested[t, i]),
                        _fmt(record.phi[t, i]),
                    ]
                    + [_fmt(record.nu[t, i, j]) for j in range(M)]
                    + [_fmt(record.beta[t, i])]
                )

    _write_rows(path, header, rows())


_SUMMARY_FIELDS = (
    "p_required",
    "p_tx",
    "p_rx_analytic",
    "p_rx_empirical",
    "ctrl_perf",
    "energy_balance",
    "battery_final",
)
_VIOLATION_KEYS = ("causality", "mirror", "dual_bound", "nonfinite")


def write_summary_csv(summary: Summary, path) -> None:
    path = Path(path)
    M = len(summary.nodes)
    header = (
        ["node"]
        + list(_SUMMARY_FIELDS)
        + [f"max_nu_{j + 1}" for j in range(M)]
        + [f"{k}_violations" for k in _VIOLATION_KEYS]
    )

    def rows():
        for entry in summary.nodes:
            yield (
                [str(entry.node + 1)]
                + [_fmt(getattr(entry, name)) for name in _SUMMARY_FIELDS]
                + [_fmt(v) for v in entry.max_nu]
                + [str(summary.violations.get(k, 0)) for k in _VIOLATION_KEYS]
            )

    _write_rows(path, header, rows())


def summary_dict(summary: Summary) -> dict:
    return {
        "horizon": summary.horizon,
        "violations": {k: summary.violations.get(k, 0) for k in _VIOLATION_KEYS},
        "nodes": [
            {
                "node": entry.node + 1,
                **{name: float(getattr(entry, name)) for name in _SUMMARY_FIELDS},
                "max_nu": [float(v) for v in entry.max_nu],
            }
            for entry in summary.nodes
        ],
    }


def write_summary_json(summary: Summary, path) -> None:
    with open(Path(path), "w", newline="\n") as fh:
        json.dump(summary_dict(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _state_trace(record: TelemetryRecord, i: int) -> np.ndarray:
    """Scalar trace of plant i: the state itself when scalar, else its norm."""
    x = record.states[i]
    if x.shape[1] == 1:
        return x[:, 0]
    return np.linalg.norm(x, axis=1)


def write_figure_csvs(record: TelemetryRecord, outdir, window: tuple[int, int] = (1050, 1100)) -> list[Path]:
    """Plot-ready aggregates mirroring the run's headline figures."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    T, M = record.horizon, record.count
    slots = [str(t) for t in range(T)]
    written = []

    def per_node_file(name: str, column: str, values: np.ndarray):
        path = outdir / name
        header = ["slot"] + [f"{column}_{i + 1}" for i in range(M)]
        _write_rows(
            path, header,
            ([slots[t]] + [_fmt(values[t, i]) for i in range(M)] for t in range(T)),
        )
        written.append(path)

    traces = np.column_stack([_state_trace(record, i) for i in range(M)]) if T else np.zeros((0, M))
    per_node_file("fig_state.csv", "x", traces)
    per_node_file("fig_battery.csv", "b", record.battery)
    per_node_file("fig_ctrl_perf.csv", "ctrl_perf", record.ctrl_perf)
    per_node_file("fig_energy_balance.csv", "balance", record.energy_balance)

    path = outdir / "fig_dual_means.csv"
    header = ["slot"] + [f"nu_mean_{i + 1}_{j + 1}" for i in range(M) for j in range(M)]
    nu_mean = np.cumsum(record.nu, axis=0) / np.arange(1, T + 1, dtype=float)[:, None, None]
    _write_rows(
        path, header,
        (
            [slots[t]] + [_fmt(nu_mean[t, i, j]) for i in range(M) for j in range(M)]
            for t in range(T)
        ),
    )
    written.append(path)

    path = outdir / "fig_prob_bars.csv"
    header = ["node", "p_required", "p_tx", "p_rx_analytic", "p_rx_empirical"]
    if T:
        bars = (
            [
                str(i + 1),
                _fmt(record.required_p[i]),
                _fmt(record.p_tx[-1, i]),
                _fmt(record.p_rx_analytic[-1, i]),
                _fmt(record.p_rx_empirical[-1, i]),
            ]
            for i in range(M)
        )
    else:
        bars = iter(())
    _write_rows(path, header, bars)
    written.append(path)

    lo = max(0, window[0])
    hi = min(T, window[1] + 1)
    path = outdir / "fig_schedule_window.csv"
    header = ["slot", "node", "q", "tx", "collided"]
    _write_rows(
        path, header,
        (
            [
                str(t),
                str(i + 1),
                _fmt(record.q[t, i]),
                _fmt_bool(record.transmitted[t, i]),
                _fmt_bool(record.collided[t, i]),
            ]
            for t in range(lo, hi)
            for i in range(M)
        ),
    )
    written.append(path)
    return written
