"""The run-file writers: the forked ``slots.csv`` writer of ``write_outputs``
(errors, reaping, stdio), the state traces of ``fig_state.csv``, and
``summary.json`` and stderr after a non-finite abort. The bytes of every
file are pinned in ``test_golden.py``."""

import csv
import errno
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from ehctrl import telemetry
from ehctrl.cli import main
from ehctrl.config import build_config, read_raw
from ehctrl.sim import run

SRC = Path(__file__).resolve().parents[1] / "src"

# Builds a 50-slot record of the shipped config; prepended to every script.
SHORT_RUN = """
import os, sys
from ehctrl import telemetry
from ehctrl.config import build_config, read_raw
from ehctrl.sim import run
result = run(build_config(read_raw(None), seed=1, horizon=50))
"""


def run_script(body: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run ``SHORT_RUN`` and then ``body`` in a fresh interpreter with ``src``
    on its path and stdout and stderr on pipes (so block-buffered)."""
    script = SHORT_RUN + textwrap.dedent(body)
    return subprocess.run([sys.executable, "-c", script], cwd=cwd,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})


@pytest.fixture(scope="module")
def result():
    return run(build_config(read_raw(None), seed=1, horizon=50))


@pytest.fixture
def forked(monkeypatch) -> list[int]:
    """The pids ``os.fork`` returns to the calling process."""
    pids = []
    real_fork = os.fork

    def spy():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def assert_reaped(pids: list[int]) -> None:
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


def write(result, outdir) -> None:
    telemetry.write_outputs(result.record, result.summary, outdir, (0, 10))


class TestForkedSlotsWriter:
    def test_child_is_reaped_after_success(self, tmp_path, result, forked):
        write(result, tmp_path / "out")
        assert_reaped(forked)
        telemetry.write_slots_csv(result.record, tmp_path / "slots.csv")
        assert (tmp_path / "out" / "slots.csv").read_bytes() == \
            (tmp_path / "slots.csv").read_bytes()

    def test_child_error_propagates_and_child_is_reaped(self, tmp_path, result, forked):
        (tmp_path / "slots.csv").mkdir()
        with pytest.raises(IsADirectoryError) as info:
            write(result, tmp_path)
        assert info.value.filename == str(tmp_path / "slots.csv")
        assert_reaped(forked)
        assert json.loads((tmp_path / "summary.json").read_text())["horizon"] == 50

    def test_parent_error_still_reaps_child(self, tmp_path, result, forked):
        (tmp_path / "summary.json").mkdir()
        with pytest.raises(IsADirectoryError) as info:
            write(result, tmp_path)
        assert info.value.filename == str(tmp_path / "summary.json")
        assert_reaped(forked)
        telemetry.write_slots_csv(result.record, tmp_path / "expected.csv")
        assert (tmp_path / "slots.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_parent_error_wins_over_child_error(self, tmp_path, result, forked):
        (tmp_path / "slots.csv").mkdir()
        (tmp_path / "summary.csv").mkdir()
        with pytest.raises(IsADirectoryError) as info:
            write(result, tmp_path)
        assert info.value.filename == str(tmp_path / "summary.csv")
        assert_reaped(forked)

    @pytest.mark.parametrize("fault", ["unpicklable", "killed"])
    def test_child_ending_without_exception_raises(self, tmp_path, result, forked,
                                                   monkeypatch, fault):
        class Local(Exception):
            pass

        caller = os.getpid()

        def fail(record, path):
            if fault == "killed" and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            raise Local("a local class does not pickle")

        monkeypatch.setattr(telemetry, "write_slots_csv", fail)
        code = -signal.SIGKILL if fault == "killed" else 1
        with pytest.raises(ChildProcessError, match=f"slots.csv failed: .* ended with {code}"):
            write(result, tmp_path)
        assert_reaped(forked)

    def test_no_process_left_after_raise(self, tmp_path):
        done = run_script("""
        os.makedirs("out/slots.csv")
        try:
            telemetry.write_outputs(result.record, result.summary, "out", (0, 10))
        except IsADirectoryError as exc:
            print("raised", exc.filename)
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("no child left")
        """, tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["raised out/slots.csv", "no child left"]

    def test_cli_reports_child_error_and_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "slots.csv").mkdir(parents=True)
        assert main(["run", "--horizon", "50", "--out", str(out)]) == 2
        path = out / "slots.csv"
        assert capsys.readouterr().err == \
            f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{path}'\n"


class TestForkDoublesNoOutput:
    def test_unflushed_stdout_printed_once(self, tmp_path):
        done = run_script("""
        print("before")
        telemetry.write_outputs(result.record, result.summary, "out", (0, 10))
        print("after")
        """, tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["before", "after"]
        assert (tmp_path / "out" / "slots.csv").exists()

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
        write(result, tmp_path)
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
