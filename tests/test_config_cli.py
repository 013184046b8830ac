import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ehctrl.cli
import ehctrl.scheduler
import ehctrl.sim
from conftest import grid_required_probability
from ehctrl.cli import main
from ehctrl.config import DEFAULTS, build_config, load_config, read_raw
from ehctrl.control import PlantModel, control_performance_bound
from ehctrl.errors import ConfigError

REPO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "paper-sec6.cfg"


class TestConfigLoading:
    def test_shipped_file_matches_builtin_defaults(self):
        from_file = load_config(REPO_CONFIG)
        builtin = build_config(read_raw(None))
        assert from_file.seed == builtin.seed
        assert from_file.horizon == builtin.horizon
        assert np.array_equal(from_file.params.p, builtin.params.p)
        assert from_file.channel == builtin.channel
        assert from_file.availability == builtin.availability
        assert np.array_equal(from_file.capacity, builtin.capacity)
        assert np.array_equal(from_file.charge, builtin.charge)

    def test_unknown_keys_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("horizn: 100\n")
        with pytest.raises(ConfigError):
            load_config(bad)
        bad.write_text("channel: {fading_mean: 2.0, qc: 0.2}\n")
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_non_mapping_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_overrides_take_effect(self):
        config = build_config(read_raw(None), seed=77, horizon=123)
        assert config.seed == 77 and config.horizon == 123

    def test_partial_mapping_falls_back_to_defaults(self):
        def same(a, b):
            if dataclasses.is_dataclass(a):
                return type(a) is type(b) and all(
                    same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
            if isinstance(a, (tuple, list)):
                return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
            if isinstance(a, np.ndarray):
                return a.dtype == b.dtype and np.array_equal(a, b)
            return type(a) is type(b) and a == b

        assert same(build_config({"horizon": 100}), build_config(read_raw(None), horizon=100))
        with pytest.raises(ConfigError, match="unknown config key nope"):
            build_config({"nope": 1})

    def test_strict_sizing_failure(self, tmp_path):
        cfg = tmp_path / "undersized.cfg"
        cfg.write_text("scheduler: {epsilon: 1.0, nu_bar: 19.0, y_bar: 20.0, s_floor: 1.0e-6}\n")
        with pytest.raises(ConfigError):
            load_config(cfg, strict=True)
        # non-strict only warns
        load_config(cfg, strict=False)

    def test_matrix_plant_defaults_to_identities(self, tmp_path):
        cfg = tmp_path / "matrix.cfg"
        cfg.write_text(
            "plants:\n"
            "  - {a_open: [[1.05, 0.1], [0.0, 1.05]], a_closed: [[0.1, 0.0], [0.0, 0.1]]}\n"
            "  - {a_open: 1.05, a_closed: 0.1}\n"
        )
        plants = load_config(cfg).plants
        assert np.array_equal(plants[0].noise_cov, np.eye(2))
        assert np.array_equal(plants[0].lyapunov_weight, np.eye(2))
        assert np.array_equal(plants[1].noise_cov, [[1.0]])
        assert np.array_equal(plants[1].lyapunov_weight, [[1.0]])

    def test_per_node_lists(self, tmp_path):
        cfg = tmp_path / "lists.cfg"
        cfg.write_text(
            "harvest:\n"
            "  - {mean: 0.5, distribution: bernoulli}\n"
            "  - {mean: 0.7, distribution: uniform}\n"
            "battery:\n"
            "  - {capacity: 20.0, initial: 5.0}\n"
            "  - {capacity: 25.0}\n"
        )
        config = load_config(cfg)
        assert config.harvests[1].mean == 0.7
        assert config.capacity.tolist() == [20.0, 25.0]
        assert config.charge.tolist() == [5.0, 25.0]

    @pytest.mark.parametrize("entries, message", [
        ("plants:\n  - {a_open: 1.1, a_closed: 0.15}\n  - {a_open: 1.05}\n",
         "plants[1].a_closed is required"),
        ("plants:\n  - 1.1\n", "plants[0] must be a mapping"),
        ("harvest:\n  - {mean: 0.5}\n  - {distribution: uniform}\n",
         "harvest[1].mean is required"),
        ("battery:\n  - {capacity: 20.0}\n  - 5\n", "battery[1] must be a mapping"),
        ("channel: 5\n", "channel must be a mapping"),
        ("scheduler: null\n", "scheduler must be a mapping"),
        ("availability: [1, 2]\n", "availability must be a mapping"),
        ("channel: {decode: null}\n", "channel.decode must be a mapping"),
        ("battery: {capacity: 0}\n", "battery capacity must be positive"),
        ("battery: {initial: 30}\n", "battery charge 30.0 outside [0, 20.0]"),
        ("schedule_window: [2000, 100]\n", "schedule_window start 2000 is after its stop 100"),
        ("battery:\n  - {capacity: 20.0}\n  - {capacity: 20.0, initial: 30}\n",
         "battery[1].initial: battery charge 30.0 outside [0, 20.0]"),
        ("battery:\n  - {capacity: -1.0}\n  - {capacity: 20.0}\n",
         "battery[0].capacity: battery capacity must be positive"),
        ("battery: {capacity: 0}\n", "battery.capacity: battery capacity must be positive"),
    ], ids=["plant-key-missing", "plant-not-mapping", "harvest-key-missing",
            "battery-not-mapping", "channel-not-mapping", "scheduler-null",
            "availability-list", "decode-null", "battery-capacity-zero",
            "battery-charge-above-capacity", "schedule-window-inverted",
            "battery-list-charge-above-capacity", "battery-list-capacity-negative",
            "battery-capacity-zero-key"])
    def test_malformed_entry_exits_2(self, tmp_path, capsys, entries, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(entries)
        assert main(["run", "--config", str(cfg), "--horizon", "5",
                     "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("entries, key", [
        ("plants:\n  - {a_open: 1.1, a_closed: 0.15, noise_cv: 5.0}\n"
         "  - {a_open: 1.05, a_closed: 0.1}\n", "plants[0].noise_cv"),
        ("harvest:\n  - {mean: 0.5}\n  - {mean: 0.5, distrib: uniform}\n",
         "harvest[1].distrib"),
        ("battery:\n  - {capacity: 20.0, intial: 5.0}\n  - {capacity: 20.0}\n",
         "battery[0].intial"),
        ("channel: {decode: {rat: 9.0}}\n", "channel.decode.rat"),
        # retired: nodes read each other's multipliers through the mailbox only
        ("dual_access: mailbox\n", "dual_access"),
    ], ids=["plant", "harvest", "battery", "decode", "dual-access"])
    def test_unknown_entry_key_exits_2(self, tmp_path, capsys, entries, key):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(entries)
        assert main(["run", "--config", str(cfg), "--horizon", "5",
                     "--out", str(tmp_path / "out")]) == 2
        assert f"unknown config key {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("entries, message", [
        ("horizon: abc\n", "horizon must be an integer, got 'abc'"),
        ("scheduler: {epsilon: abc}\n", "scheduler.epsilon must be a number, got 'abc'"),
        ("channel: {fading_mean: [1, 2]}\n",
         "channel.fading_mean must be a number, got [1, 2]"),
        ("schedule_window: [a, b]\n", "schedule_window must be an integer, got 'a'"),
        ("availability: {staleness_bound: 2.7}\n",
         "availability.staleness_bound must be an integer, got 2.7"),
        ("scheduler: {epsilon: .nan}\n", "scheduler.epsilon must be finite, got nan"),
        ("channel: {decode: {rate: .nan}}\n", "channel.decode.rate must be finite, got nan"),
        ("scheduler: {nu_bar: .nan}\n", "scheduler.nu_bar must be finite, got nan"),
        ("harvest: {mean: .nan}\n", "harvest.mean must be finite, got nan"),
        ("channel: {fading_mean: .inf}\n", "channel.fading_mean must be finite, got inf"),
        ("required_reception: [.nan, 0.5]\n",
         "required_reception must be finite, got [nan, 0.5]"),
        ("initial_state: .nan\n", "initial_state must be finite, got nan"),
        # YAML booleans are not numbers
        ("horizon: true\n", "horizon must be an integer, got True"),
        ("availability: {staleness_bound: yes}\n",
         "availability.staleness_bound must be an integer, got True"),
        ("channel: {collision_prob: false}\n", "channel.collision_prob must be a number, got False"),
        ("plants:\n  - {a_open: true, a_closed: 0.15}\n  - {a_open: 1.05, a_closed: 0.1}\n",
         "plants[0].a_open must be numbers, got True"),
        ("required_reception: [0.3, true]\n", "required_reception must be numbers, got [0.3, True]"),
    ], ids=["horizon", "epsilon", "fading-mean", "schedule-window", "staleness-bound",
            "nan-epsilon", "nan-decode-rate", "nan-nu-bar", "nan-harvest-mean",
            "inf-fading-mean", "nan-required-reception", "nan-initial-state",
            "bool-horizon", "bool-staleness-bound", "bool-collision-prob", "bool-a-open",
            "bool-in-list"])
    def test_unconvertible_value_exits_2(self, tmp_path, capsys, entries, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(entries)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    def test_defaults_unmutated_by_builds(self):
        before = json.dumps(DEFAULTS, sort_keys=True, default=str)
        build_config(read_raw(None), seed=9, horizon=10)
        assert json.dumps(DEFAULTS, sort_keys=True, default=str) == before


class TestCheckConfig:
    def test_defaults_pass(self, capsys):
        assert main(["check-config"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_undersized_auxiliary_cap(self, tmp_path, capsys):
        cfg = tmp_path / "u.cfg"
        cfg.write_text("scheduler: {epsilon: 1.0, nu_bar: 19.0, y_bar: 20.0, s_floor: 1.0e-6}\n")
        assert main(["check-config", "--config", str(cfg)]) == 0
        assert "FAIL" in capsys.readouterr().out
        assert main(["check-config", "--config", str(cfg), "--strict"]) == 2

    def test_undersized_cap_names_plain_index(self, tmp_path, capsys):
        cfg = tmp_path / "y10.cfg"
        cfg.write_text("scheduler: {y_bar: 10}\n")
        assert main(["check-config", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "FAIL: auxiliary cap y_bar[0, 0] = 10 below (nu_bar + 2*eps)/eps = 21" in out

    def test_halved_step_size_needs_larger_battery(self, tmp_path, capsys):
        cfg = tmp_path / "eps.cfg"
        cfg.write_text(
            "scheduler: {epsilon: 0.5, nu_bar: 19.0, y_bar: 40.0, s_floor: 1.0e-6}\n"
        )
        assert main(["check-config", "--config", str(cfg), "--strict"]) == 2
        out = capsys.readouterr().out
        assert "39" in out  # nu_bar/eps + 1

    def test_each_problem_reported_once(self, tmp_path, capsys, caplog):
        cfg = tmp_path / "small-battery.cfg"
        cfg.write_text("battery: {capacity: 3.0}\n")
        assert main(["check-config", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        problem = "battery capacity of node 0 is 3, below nu_bar_ii/eps + 1 = 20"
        assert (captured.out + captured.err + caplog.text).count(problem) == 1


class TestRequiredProbCommand:
    def test_scalar_reference_values(self, capsys):
        assert main(["required-prob", "--a-open", "1.05", "--a-closed", "0.1",
                     "--rho", "0.8"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(0.2769, abs=5e-4)

    def test_stable_open_loop(self, capsys):
        assert main(["required-prob", "--a-open", "0.5", "--a-closed", "0.1",
                     "--rho", "0.8"]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_matrix_file_matches_grid_oracle(self, tmp_path, capsys):
        plant_file = tmp_path / "plant.yaml"
        plant_file.write_text(
            "a_open: [[1.05, 0.1], [0.0, 1.05]]\n"
            "a_closed: [[0.1, 0.0], [0.0, 0.1]]\n"
            "lyapunov_weight: [[1.0, 0.0], [0.0, 1.0]]\n"
            "noise_cov: [[1.0, 0.0], [0.0, 1.0]]\n"
            "decrease_rate: 0.8\n"
        )
        assert main(["required-prob", "--plant-file", str(plant_file)]) == 0
        value = float(capsys.readouterr().out.strip())
        model = PlantModel(
            a_open=[[1.05, 0.1], [0.0, 1.05]], a_closed=np.eye(2) * 0.1,
            noise_cov=np.eye(2), lyapunov_weight=np.eye(2), decrease_rate=0.8,
        )
        assert value == pytest.approx(grid_required_probability(model, 1e-4), abs=1e-3)

    def test_matrix_file_defaults_to_identities(self, tmp_path, capsys):
        """A matrix plant file may leave out ``noise_cov`` and
        ``lyapunov_weight``: both are the identity of its dimension."""
        plants = ("a_open: [[1.05, 0.1], [0.0, 1.05]]\n"
                  "a_closed: [[0.1, 0.0], [0.0, 0.1]]\n"
                  "decrease_rate: 0.8\n")
        printed = []
        for extra in ("", "noise_cov: [[1.0, 0.0], [0.0, 1.0]]\n"
                          "lyapunov_weight: [[1.0, 0.0], [0.0, 1.0]]\n"):
            plant_file = tmp_path / "plant.yaml"
            plant_file.write_text(plants + extra)
            assert main(["required-prob", "--plant-file", str(plant_file)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_nan_tolerance_exits_2(self, tmp_path, capsys):
        """A NaN tolerance would end the bisection at once and print 1."""
        plant_file = tmp_path / "plant.yaml"
        plant_file.write_text(
            "a_open: [[1.05, 0.1], [0.0, 1.05]]\n"
            "a_closed: [[0.1, 0.0], [0.0, 0.1]]\n"
            "lyapunov_weight: [[1.0, 0.0], [0.0, 1.0]]\n"
            "noise_cov: [[1.0, 0.0], [0.0, 1.0]]\n"
            "decrease_rate: 0.8\n"
        )
        assert main(["required-prob", "--plant-file", str(plant_file), "--tol", "nan"]) == 2
        assert "tolerance must be positive, got nan" in capsys.readouterr().err

    def test_plant_file_unknown_key(self, tmp_path, capsys):
        plant_file = tmp_path / "plant.yaml"
        plant_file.write_text("a_open: 1.05\na_closed: 0.1\ndecrease_rat: 0.5\n")
        assert main(["required-prob", "--plant-file", str(plant_file)]) == 2
        assert "unknown config key plant-file.decrease_rat" in capsys.readouterr().err

    def test_plant_file_syntax_error(self, tmp_path, capsys):
        plant_file = tmp_path / "plant.yaml"
        plant_file.write_text("a_open: [1\n")
        assert main(["required-prob", "--plant-file", str(plant_file)]) == 2
        assert f"cannot parse plant-file {plant_file}" in capsys.readouterr().err

    def test_plant_file_missing_key(self, tmp_path, capsys):
        plant_file = tmp_path / "plant.yaml"
        plant_file.write_text("a_closed: 0.1\ndecrease_rate: 0.8\n")
        assert main(["required-prob", "--plant-file", str(plant_file)]) == 2
        assert "plant-file.a_open is required" in capsys.readouterr().err

    def test_infeasible_is_config_error(self, capsys):
        assert main(["required-prob", "--a-open", "1.1", "--a-closed", "0.95",
                     "--rho", "0.8"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_arguments(self, capsys):
        assert main(["required-prob", "--a-open", "1.1"]) == 2

    def test_flags_match_plant_file(self, tmp_path, capsys):
        plant_file = tmp_path / "plant.yaml"
        plant_file.write_text("a_open: 1.05\na_closed: 0.1\nlyapunov_weight: 2.0\n"
                              "decrease_rate: 0.85\n")
        assert main(["required-prob", "--plant-file", str(plant_file)]) == 0
        from_file = capsys.readouterr().out
        assert main(["required-prob", "--a-open", "1.05", "--a-closed", "0.1",
                     "--lyapunov", "2.0", "--rho", "0.85"]) == 0
        assert capsys.readouterr().out == from_file

    def test_nonfinite_flag_names_its_key(self, capsys):
        assert main(["required-prob", "--a-open", "nan", "--a-closed", "0.1",
                     "--rho", "0.8"]) == 2
        assert "plant.a_open must be finite, got nan" in capsys.readouterr().err


class TestRunCommand:
    def test_writes_all_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--horizon", "300", "--seed", "2", "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == {"slots.csv", "summary.csv", "summary.json"}
        stdout = capsys.readouterr().out
        assert "required p = 0.3453" in stdout
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violations"] == {
            "causality": 0, "mirror": 0, "dual_bound": 0, "nonfinite": 0,
        }
        header = (out / "slots.csv").read_text().splitlines()[0]
        assert header == "slot,node,x1,V,z,tx,gamma,h,q,b,e,phi,nu_1,nu_2,beta"

    def test_zero_horizon_empty_outputs(self, tmp_path):
        out = tmp_path / "empty"
        assert main(["run", "--horizon", "0", "--out", str(out)]) == 0
        slots = (out / "slots.csv").read_text().splitlines()
        assert len(slots) == 1  # header only
        summary = json.loads((out / "summary.json").read_text())
        assert summary["nodes"] == []

    def test_zero_horizon_summary_bytes(self, tmp_path):
        out = tmp_path / "empty"
        assert main(["run", "--horizon", "0", "--out", str(out)]) == 0
        assert (out / "summary.csv").read_text() == (
            "node,p_required,p_tx,p_rx_analytic,p_rx_empirical,ctrl_perf,energy_balance,"
            "battery_final,causality_violations,mirror_violations,dual_bound_violations,"
            "nonfinite_violations\n"
        )
        assert (out / "summary.json").read_text() == (
            '{\n  "horizon": 0,\n  "nodes": [],\n  "violations": {\n    "causality": 0,\n'
            '    "dual_bound": 0,\n    "mirror": 0,\n    "nonfinite": 0\n  }\n}\n'
        )

    @pytest.mark.parametrize("horizon", ["0", "300"])
    def test_stdout_matches_summary_json(self, tmp_path, capsys, horizon):
        """Each line ``run`` prints holds the values of the summary.json that
        the same run writes."""
        out = tmp_path / "out"
        assert main(["run", "--horizon", horizon, "--seed", "3", "--out", str(out)]) == 0
        nodes = json.loads((out / "summary.json").read_text())["nodes"]
        plants = load_config(None).plants
        assert len(nodes) == (len(plants) if horizon != "0" else 0)
        assert capsys.readouterr().out.splitlines() == [
            f"node {n['node']}: required p = {n['p_required']:.4f}, "
            f"p_tx = {n['p_tx']:.4f}, p_rx = {n['p_rx_analytic']:.4f} "
            f"(empirical {n['p_rx_empirical']:.4f}), "
            f"ctrl_perf = {n['ctrl_perf']:.4f}, "
            f"bound = {control_performance_bound(plant):.4f}, "
            f"energy balance = {n['energy_balance']:.4f}"
            for n, plant in zip(nodes, plants)
        ]

    def test_same_seed_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for command in ("run", "figures"):
            for out in (out_a, out_b):
                assert main([command, "--horizon", "400", "--seed", "1", "--out", str(out)]) == 0
        for name in ("slots.csv", "summary.csv", "summary.json", "fig_state.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_null_initial_state_starts_at_zero(self, tmp_path):
        for name, value in (("null", "null"), ("zero", "0.0")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(f"initial_state: {value}\n")
            assert main(["run", "--config", str(cfg), "--horizon", "300",
                         "--out", str(tmp_path / name)]) == 0
        slots = [(tmp_path / name / "slots.csv").read_bytes() for name in ("null", "zero")]
        assert slots[0] == slots[1]

    def test_strict_blocks_undersized_config(self, tmp_path):
        cfg = tmp_path / "u.cfg"
        cfg.write_text("scheduler: {epsilon: 1.0, nu_bar: 19.0, y_bar: 20.0, s_floor: 1.0e-6}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--horizon", "10",
                     "--out", str(out), "--strict"]) == 2

    def test_invariant_breach_exits_3_with_partial_telemetry(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ehctrl.sim, "SCALAR_MAX_NODES", 0)
        monkeypatch.setattr(
            ehctrl.scheduler, "compute_z", lambda nu, beta, stale, q, params: np.full(q.shape, 0.6)
        )
        cfg = tmp_path / "tiny-battery.cfg"
        cfg.write_text("battery: {capacity: 20.0, initial: 0.2}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--horizon", "50", "--out", str(out)]) == 3
        assert (out / "slots.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violations"]["causality"] == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2


class TestSweepCommand:
    def test_sweep_rows_and_determinism(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        argv = ["sweep", "--param", "harvest_mean", "--values", "0.3,0.6",
                "--horizon", "200", "--seed", "5"]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        rows_a = (out_a / "sweep.csv").read_text().splitlines()
        assert len(rows_a) == 3
        assert rows_a[0].startswith("param,value,seed,")
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()

    def test_sweep_staleness_bound_is_integer(self, tmp_path):
        out = tmp_path / "o"
        cfg = tmp_path / "pg.cfg"
        cfg.write_text("availability: {mode: piggyback, prob: 0.5, staleness_bound: 5}\n")
        assert main(["sweep", "--param", "staleness_bound", "--values", "5,20",
                     "--config", str(cfg), "--horizon", "150", "--out", str(out)]) == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 3

    def test_unconvertible_seed_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed: abc\n")
        assert main(["sweep", "--param", "harvest_mean", "--values", "0.3",
                     "--config", str(cfg), "--horizon", "10", "--out", str(tmp_path)]) == 2
        assert "seed must be an integer, got 'abc'" in capsys.readouterr().err

    def test_nonfinite_value_exits_2(self, tmp_path, capsys, monkeypatch):
        runs = []
        monkeypatch.setattr(ehctrl.cli, "run", runs.append)
        assert main(["sweep", "--param", "harvest_mean", "--values", "0.3,nan",
                     "--horizon", "10", "--out", str(tmp_path)]) == 2
        assert "harvest.mean must be finite, got nan" in capsys.readouterr().err
        assert runs == []  # every point is checked before the first one runs

    def test_parallel_sweep_writes_same_bytes(self, tmp_path):
        argv = ["sweep", "--param", "harvest_mean", "--values", "0.3,0.45,0.6",
                "--horizon", "200", "--seed", "5"]
        for jobs in ("1", "2"):
            assert main(argv + ["--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
        assert (tmp_path / "1" / "sweep.csv").read_bytes() == (
            tmp_path / "2" / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_aborting_point_exits_3(self, tmp_path, capsys, jobs):
        cfg = tmp_path / "small-battery.cfg"
        cfg.write_text("battery: {capacity: 3.0}\n")
        out = tmp_path / "out"
        assert main(["sweep", "--param", "harvest_mean", "--values", "0.8,0.4,0.3",
                     "--config", str(cfg), "--horizon", "100", "--jobs", jobs,
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert ("aborted: point 1 (harvest_mean = 0.4): run aborted at slot 12: "
                "energy causality violated at slot 12: node 1") in err
        assert not (out / "sweep.csv").exists()

    def test_strict_undersized_point_exits_2_before_any_run(self, tmp_path, capsys,
                                                           monkeypatch):
        runs = []
        monkeypatch.setattr(ehctrl.cli, "run", runs.append)
        out = tmp_path / "out"
        assert main(["sweep", "--param", "epsilon", "--values", "1.0,0.5", "--strict",
                     "--horizon", "10", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "sizing check failed: auxiliary cap y_bar[0, 0] = 25 below" in err
        assert runs == []
        assert not (out / "sweep.csv").exists()

    def test_undersized_point_warns(self, tmp_path, caplog):
        assert main(["sweep", "--param", "epsilon", "--values", "0.5", "--horizon", "10",
                     "--out", str(tmp_path)]) == 0
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
            "sizing: auxiliary cap y_bar[0, 0] = 25 below (nu_bar + 2*eps)/eps = 40",
            "sizing: battery capacity of node 0 is 20, below nu_bar_ii/eps + 1 = 39",
        ]

    def test_shared_sizing_problems_logged_once(self, tmp_path, caplog):
        """Each distinct sizing problem of a sweep is logged once, in the
        order the points first raise it."""
        def warnings():
            return [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]

        cfg = tmp_path / "small.cfg"
        cfg.write_text("battery: {capacity: 3.0}\n")
        assert main(["sweep", "--param", "seed", "--values", "1,2,3", "--config", str(cfg),
                     "--horizon", "10", "--out", str(tmp_path / "seeds")]) == 0
        assert warnings() == [
            "sizing: battery capacity of node 0 is 3, below nu_bar_ii/eps + 1 = 20",
        ]
        caplog.clear()
        assert main(["sweep", "--param", "epsilon", "--values", "0.5,0.25,0.5",
                     "--horizon", "10", "--out", str(tmp_path / "steps")]) == 0
        assert warnings() == [
            "sizing: auxiliary cap y_bar[0, 0] = 25 below (nu_bar + 2*eps)/eps = 40",
            "sizing: battery capacity of node 0 is 20, below nu_bar_ii/eps + 1 = 39",
            "sizing: auxiliary cap y_bar[0, 0] = 25 below (nu_bar + 2*eps)/eps = 78",
            "sizing: battery capacity of node 0 is 20, below nu_bar_ii/eps + 1 = 77",
        ]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, monkeypatch, jobs):
        runs = []
        monkeypatch.setattr(ehctrl.cli, "run", runs.append)
        assert main(["sweep", "--param", "harvest_mean", "--values", "0.3", "--jobs", jobs,
                     "--horizon", "10", "--out", str(tmp_path)]) == 2
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert runs == []

    def test_bad_values_rejected(self, tmp_path):
        assert main(["sweep", "--param", "harvest_mean", "--values", "a,b",
                     "--out", str(tmp_path)]) == 2

    def test_seed_points_match_runs(self, tmp_path):
        """A seed point is the run at that root seed, not at a derived one."""
        assert main(["sweep", "--param", "seed", "--values", "1,2", "--horizon", "300",
                     "--out", str(tmp_path / "sweep")]) == 0
        rows = read_csv(tmp_path / "sweep" / "sweep.csv")
        assert [(row["value"], row["seed"]) for row in rows] == [("1", "1"), ("2", "2")]
        for row in rows:
            out = tmp_path / row["seed"]
            assert main(["run", "--seed", row["seed"], "--horizon", "300",
                         "--out", str(out)]) == 0
            nodes = json.loads((out / "summary.json").read_text())["nodes"]
            assert [float(row[f"ctrl_perf_{n['node']}"]) for n in nodes] == [
                n["ctrl_perf"] for n in nodes]

    @pytest.mark.parametrize("value", ["2.5", "abc"])
    def test_non_integer_seed_exits_2(self, tmp_path, capsys, monkeypatch, value):
        runs = []
        monkeypatch.setattr(ehctrl.cli, "run", runs.append)
        assert main(["sweep", "--param", "seed", "--values", f"1,{value}",
                     "--horizon", "10", "--out", str(tmp_path)]) == 2
        assert "cannot parse sweep values" in capsys.readouterr().err
        assert runs == []

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_root_seed_out_of_range_exits_2(self, tmp_path, capsys, monkeypatch, seed):
        """The root seed is checked as ``run`` checks it, although each point
        runs at a seed derived from it."""
        runs = []
        monkeypatch.setattr(ehctrl.cli, "run", runs.append)
        assert main(["sweep", "--param", "harvest_mean", "--values", "0.3", "--seed", str(seed),
                     "--horizon", "10", "--out", str(tmp_path)]) == 2
        assert "seed must fit in 64 bits" in capsys.readouterr().err
        assert runs == []

    def test_large_seed_used_exactly(self, tmp_path, monkeypatch):
        seeds = []

        def spy(config):
            seeds.append(config.seed)
            return ehctrl.sim.run(config)

        monkeypatch.setattr(ehctrl.cli, "run", spy)
        seed = 2**53 + 1  # the nearest float is 2**53
        assert main(["sweep", "--param", "seed", "--values", str(seed), "--horizon", "10",
                     "--out", str(tmp_path)]) == 0
        assert seeds == [seed]
        assert read_csv(tmp_path / "sweep.csv")[0]["seed"] == str(seed)

    @pytest.mark.parametrize("param", sorted(ehctrl.cli.SWEEP_PARAMS))
    def test_param_paths_name_numbers(self, param):
        value = DEFAULTS
        for key in ehctrl.cli.SWEEP_PARAMS[param]:
            value = value[key]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)


def read_csv(path) -> list[dict]:
    header, *lines = Path(path).read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def test_cli_import_leaves_process_pool_unloaded():
    """``--jobs 1`` and every other command run without the process-pool
    machinery, so importing the CLI must not load it."""
    probe = "import sys, ehctrl.cli; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["run", "--horizon", "50", "--out", "out"],
    ["check-config"],
    ["required-prob", "--a-open", "1.05", "--a-closed", "0.1", "--rho", "0.8"],
], ids=["run", "check-config", "required-prob"])
def test_module_entry_point(tmp_path, argv):
    """``python -m ehctrl`` works in a fresh interpreter that has only ``src``
    added to its path: the package imports no submodule itself, so the entry
    point must."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-s", "-m", "ehctrl", *argv], cwd=tmp_path,
                          capture_output=True, text=True, env={"PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
