"""The run-file writers: ``write_outputs``'s write errors, ``run``'s stdout
through a pipe, the state traces of ``fig_state.csv``, the run files,
figures and stderr after a non-finite abort, and the warning about a
schedule window past the horizon. The bytes of every file are pinned in
``test_golden.py``."""

import csv
import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ehctrl import telemetry
from ehctrl.cli import main
from ehctrl.config import build_config, read_raw
from ehctrl.sim import run

SRC = Path(__file__).resolve().parents[1] / "src"


class TestWriteErrors:
    def test_slots_error_leaves_the_summaries(self, tmp_path):
        result = run(build_config(read_raw(None), seed=1, horizon=50))
        (tmp_path / "slots.csv").mkdir()
        with pytest.raises(IsADirectoryError) as info:
            telemetry.write_outputs(result.record, result.summary, tmp_path)
        assert info.value.filename == str(tmp_path / "slots.csv")
        assert json.loads((tmp_path / "summary.json").read_text())["horizon"] == 50

    def test_cli_reports_write_error_and_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "slots.csv").mkdir(parents=True)
        assert main(["run", "--horizon", "50", "--out", str(out)]) == 2
        path = out / "slots.csv"
        assert capsys.readouterr().err == \
            f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{path}'\n"


class TestRunStdout:
    def test_run_through_pipe_prints_one_line_per_node(self, tmp_path):
        done = subprocess.run(
            [sys.executable, "-m", "ehctrl", "run", "--horizon", "50", "--out", "out"],
            cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == 0, done.stderr
        assert [line.split(":")[0] for line in done.stdout.splitlines()] == ["node 1", "node 2"]


class TestStateTrace:
    def test_matrix_plant_column_is_the_norm(self, tmp_path):
        """A matrix plant's column is the norm of its state, a scalar plant's
        column the state itself."""
        raw = read_raw(None)
        raw["plants"] = [
            {"a_open": [[1.05, 0.1], [0.0, 0.9]], "a_closed": (np.eye(2) * 0.1).tolist()},
            raw["plants"][1],
        ]
        result = run(build_config(raw, seed=3, horizon=300))
        telemetry.write_figures(result.record, result.summary, tmp_path, (0, 10))
        with open(tmp_path / "fig_state.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        matrix, scalar = result.record.states
        assert len(rows) == len(matrix) == 300
        for row, x, s in zip(rows, matrix.tolist(), scalar.tolist()):
            assert float(row["x_1"]) == pytest.approx(math.hypot(*x), rel=1e-15)
            assert float(row["x_2"]) == s[0]


# The first plant's state overflows at slot 63, scalar or 2x2.
DIVERGING_PLANTS = {
    "scalar": "{a_open: 1.0e10, a_closed: 0.15}",
    "2x2": "{a_open: [[1.0e10, 0.0], [0.0, 1.0e10]], a_closed: [[0.15, 0.0], [0.0, 0.15]]}",
}


def diverging_config(tmp_path, plant: str = DIVERGING_PLANTS["scalar"]) -> Path:
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(f"plants:\n  - {plant}\n  - {{a_open: 1.05, a_closed: 0.1}}\n"
                   "required_reception: [0.5, 0.3]\n")
    return cfg


class TestNonFiniteSummary:
    def test_summary_json_parses_after_nonfinite_abort(self, tmp_path):
        """Node 1's state overflows at slot 63; its ``ctrl_perf`` is infinite."""
        out = tmp_path / "out"
        assert main(["run", "--config", str(diverging_config(tmp_path)), "--out", str(out)]) == 3

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["violations"]["nonfinite"] == 1
        assert summary["nodes"][0]["ctrl_perf"] is None
        assert isinstance(summary["nodes"][1]["ctrl_perf"], float)
        header, first, _ = (out / "summary.csv").read_text().splitlines()
        assert dict(zip(header.split(","), first.split(",")))["ctrl_perf"] == "inf"

    @pytest.mark.parametrize("plant", DIVERGING_PLANTS.values(), ids=DIVERGING_PLANTS)
    def test_stderr_holds_the_abort_alone(self, tmp_path, plant):
        """The overflows past the breach print no numpy warning."""
        done = subprocess.run(
            [sys.executable, "-m", "ehctrl", "run", "--config",
             str(diverging_config(tmp_path, plant)), "--out", "out"],
            cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        message = "run aborted at slot 63: plant 0 state went non-finite at slot 63"
        assert done.returncode == 3
        assert done.stderr.splitlines() == [f"ERROR ehctrl.cli: {message}", f"aborted: {message}"]

    def test_figures_after_abort_hold_the_completed_slots(self, tmp_path, capsys):
        """``figures`` on the diverging config exits 3 like ``run``, and each
        figure with one row per slot holds the slots of ``run``'s slots.csv."""
        cfg = str(diverging_config(tmp_path))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 3
        with open(tmp_path / "run" / "slots.csv", newline="") as fh:
            slots = sorted({int(row["slot"]) for row in csv.DictReader(fh)})
        assert slots and slots == list(range(len(slots)))
        capsys.readouterr()
        out = tmp_path / "figures"
        assert main(["figures", "--config", cfg, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("aborted: run aborted at slot 63:")
        per_slot = ("fig_state.csv", "fig_battery.csv", "fig_ctrl_perf.csv",
                    "fig_energy_balance.csv", "fig_dual_means.csv")
        assert {p.name for p in out.iterdir()} == {
            *per_slot, "fig_prob_bars.csv", "fig_schedule_window.csv",
        }
        for name in per_slot:
            with open(out / name, newline="") as fh:
                assert [int(row["slot"]) for row in csv.DictReader(fh)] == slots


class TestScheduleWindow:
    @staticmethod
    def warnings(caplog) -> list[str]:
        return [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]

    def test_window_past_the_horizon_warns(self, tmp_path, caplog):
        """The shipped window [1050, 1100] starts after a 300-slot horizon:
        the header-only fig_schedule_window.csv comes with one warning."""
        out = tmp_path / "figures"
        assert main(["figures", "--horizon", "300", "--out", str(out)]) == 0
        assert self.warnings(caplog) == [
            "schedule_window [1050, 1100] starts at or after the horizon 300: "
            "fig_schedule_window.csv holds only its header"
        ]
        assert (out / "fig_schedule_window.csv").read_text() == "slot,node,q,tx,collided\n"

    def test_window_inside_the_horizon_is_silent(self, tmp_path, caplog):
        assert main(["figures", "--horizon", "1051", "--out", str(tmp_path / "figures")]) == 0
        assert self.warnings(caplog) == []

    def test_aborted_run_is_silent(self, tmp_path, caplog):
        """A run that stops at slot 63 of 300 expects a partial window."""
        cfg = str(diverging_config(tmp_path))
        out = str(tmp_path / "figures")
        assert main(["figures", "--config", cfg, "--horizon", "300", "--out", out]) == 3
        assert self.warnings(caplog) == []
