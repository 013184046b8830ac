import dataclasses

import numpy as np
import pytest

import ehctrl.energy
import ehctrl.scheduler
from ehctrl import telemetry
from ehctrl.config import build_config, default_config, read_raw
from ehctrl.energy import BatteryState
from ehctrl.errors import EnergyCausalityError, InvalidStateError, InvariantViolation
from ehctrl.sim import (
    SimulationAborted,
    TelemetryRecord,
    _finalize,
    per_slot_reception,
    run,
    sizing_report,
    summarize,
)


def short_config(seed=1, horizon=1500, **overrides):
    raw = read_raw(None)
    for key, value in overrides.items():
        if isinstance(value, dict):
            raw[key] = {**raw[key], **value}
        else:
            raw[key] = value
    return build_config(raw, seed=seed, horizon=horizon)


def record_arrays(record: TelemetryRecord):
    yield from record.states
    for name in ("lyapunov", "z", "transmitted", "received", "collided", "h", "q",
                 "battery", "harvested", "phi", "beta", "nu", "nu_stale",
                 "ctrl_perf", "p_tx", "p_rx_analytic", "p_rx_empirical",
                 "energy_balance", "nu_mean"):
        yield getattr(record, name)


def assert_identical(rec_a: TelemetryRecord, rec_b: TelemetryRecord):
    for a, b in zip(record_arrays(rec_a), record_arrays(rec_b)):
        assert np.array_equal(a, b)


class TestDeterminism:
    def test_same_seed_same_telemetry(self, tmp_path):
        res_a = run(short_config(seed=3))
        res_b = run(short_config(seed=3))
        assert_identical(res_a.record, res_b.record)
        telemetry.write_slots_csv(res_a.record, tmp_path / "a.csv")
        telemetry.write_slots_csv(res_b.record, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_different_seed_differs(self):
        res_a = run(short_config(seed=3))
        res_b = run(short_config(seed=4))
        assert not np.array_equal(res_a.record.z, res_b.record.z)

    def test_direct_access_matches_always_on_mailbox(self):
        res_mail = run(short_config(seed=6, dual_access="mailbox"))
        res_direct = run(short_config(seed=6, dual_access="direct"))
        assert_identical(res_mail.record, res_direct.record)


@pytest.fixture(scope="module")
def result():
    return run(short_config(seed=2, horizon=2500))


class TestRunInvariants:
    def test_no_violations(self, result):
        assert result.summary.violations == {
            "causality": 0, "mirror": 0, "dual_bound": 0, "nonfinite": 0,
        }

    def test_causality_every_slot(self, result):
        assert np.all(result.record.z <= result.record.battery + 1e-12)

    def test_mirror_identity_every_slot(self, result):
        config = result.config
        eps = config.params.epsilon
        caps = np.array([b.capacity for b in config.batteries])
        mirror = eps * (caps[None, :] - result.record.battery)
        assert np.abs(result.record.beta - mirror).max() <= 1e-9

    def test_multiplier_caps_every_slot(self, result):
        params = result.config.params
        cap = params.nu_bar[None, :, :] + params.epsilon
        assert np.all(result.record.nu <= cap + 1e-9)

    def test_running_averages_recomputable(self, result):
        rec = result.record
        denom = np.arange(1, rec.horizon + 1)[:, None]
        assert np.abs(rec.ctrl_perf - np.cumsum(rec.lyapunov, 0) / denom).max() <= 1e-9
        assert np.abs(rec.p_tx - np.cumsum(rec.z, 0) / denom).max() <= 1e-9
        assert np.abs(rec.p_rx_empirical - np.cumsum(rec.received, 0) / denom).max() <= 1e-9
        balance = np.cumsum(rec.harvested - rec.z, 0) / denom
        assert np.abs(rec.energy_balance - balance).max() <= 1e-9
        analytic = per_slot_reception(rec.z, rec.q, result.config.channel.collision_prob)
        assert np.abs(rec.p_rx_analytic - np.cumsum(analytic, 0) / denom).max() <= 1e-9

    def test_empirical_tracks_analytic(self, result):
        rec = result.record
        gap = abs(rec.p_rx_empirical[-1] - rec.p_rx_analytic[-1]).max()
        assert gap <= 4.0 / np.sqrt(rec.horizon)

    def test_default_sizing_clean(self, result):
        assert sizing_report(result.config) == []


class TestDegenerateRuns:
    def test_zero_horizon(self):
        result = run(short_config(horizon=0))
        assert result.record.horizon == 0
        assert result.summary.nodes == []

    def test_starved_single_node_stays_silent(self):
        config = short_config(
            seed=8,
            horizon=800,
            plants=[{"a_open": 0.5, "a_closed": 0.1, "noise_cov": 1.0,
                     "lyapunov_weight": 1.0, "decrease_rate": 0.8}],
            harvest={"mean": 1e-12, "distribution": "deterministic"},
            battery={"capacity": 20.0, "initial": 0.0},
        )
        assert config.params.p[0] == 0.0  # stable open loop needs no reception
        result = run(config)
        assert result.record.z.max() <= 1e-6
        assert not result.record.transmitted.any()
        assert not result.record.received.any()

    def test_lone_perfect_link_summary(self):
        record = TelemetryRecord(horizon=50, count=1, required_p=np.array([0.3]))
        record.states = [np.zeros((50, 1))]
        for name in ("lyapunov", "h", "battery", "harvested", "phi", "beta"):
            setattr(record, name, np.zeros((50, 1)))
        record.z = np.ones((50, 1))
        record.q = np.ones((50, 1))
        for name in ("transmitted", "received"):
            setattr(record, name, np.ones((50, 1), dtype=bool))
        record.collided = np.zeros((50, 1), dtype=bool)
        record.nu = np.zeros((50, 1, 1))
        record.nu_stale = np.zeros((50, 1, 1))
        record.violations = {}
        _finalize(record, 50, collision_prob=0.25)
        summary = summarize(record)
        assert summary.nodes[0].p_rx_analytic == pytest.approx(1.0)
        assert summary.nodes[0].p_rx_empirical == pytest.approx(1.0)


class TestAborts:
    def test_causality_breach_aborts(self, monkeypatch):
        monkeypatch.setattr(
            ehctrl.scheduler, "compute_z", lambda duals, stale, q, params: np.full(q.shape, 0.6)
        )
        config = short_config(seed=1, horizon=50, battery={"capacity": 20.0, "initial": 0.2})
        with pytest.raises(SimulationAborted) as err:
            run(config)
        assert isinstance(err.value.cause, EnergyCausalityError)
        assert err.value.slot == 0
        assert err.value.record.violations["causality"] == 1
        assert err.value.record.horizon == 1  # partial telemetry kept

    def test_mirror_divergence_aborts(self, monkeypatch):
        true_step = ehctrl.energy.step_batteries

        def leaky_step(charge, capacity, spend, harvested, slot=None):
            return true_step(charge, capacity, spend, np.minimum(harvested + 0.05, 1.0), slot=slot)

        monkeypatch.setattr(ehctrl.energy, "step_batteries", leaky_step)
        with pytest.raises(SimulationAborted) as err:
            run(short_config(seed=1, horizon=200, battery={"capacity": 20.0, "initial": 10.0}))
        assert isinstance(err.value.cause, InvariantViolation)
        assert "mirror" in str(err.value.cause)
        assert err.value.cause.kind == "mirror"
        assert err.value.record.violations["mirror"] == 1

    def test_dual_cap_breach_aborts(self, monkeypatch):
        true_step = ehctrl.scheduler.apply_dual_step

        def overshooting_step(duals, grads, params, available=None):
            stepped = true_step(duals, grads, params, available)
            stepped.nu[1, 0] = params.nu_bar[1, 0] + params.epsilon + 1.0
            return stepped

        monkeypatch.setattr(ehctrl.scheduler, "apply_dual_step", overshooting_step)
        with pytest.raises(SimulationAborted) as err:
            run(short_config(seed=1, horizon=50))
        assert isinstance(err.value.cause, InvariantViolation)
        assert err.value.cause.kind == "dual_bound"
        assert "node 1" in str(err.value.cause)
        assert err.value.slot == 0
        assert err.value.record.violations == {
            "causality": 0, "mirror": 0, "dual_bound": 1, "nonfinite": 0,
        }

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_state_aborts(self):
        config = short_config(
            seed=1,
            horizon=3000,
            plants=[{"a_open": 3.0, "a_closed": 0.1, "noise_cov": 1.0,
                     "lyapunov_weight": 1.0, "decrease_rate": 0.8}],
            harvest={"mean": 1e-12, "distribution": "deterministic"},
            battery={"capacity": 20.0, "initial": 0.0},
            required_reception=[0.9],
        )
        with pytest.raises(SimulationAborted) as err:
            run(config)
        assert isinstance(err.value.cause, InvalidStateError)


class TestConfigSurface:
    def test_default_config_matches_shipped_parameters(self):
        config = default_config()
        assert config.horizon == 10_000
        assert config.count == 2
        assert config.params.p[0] == pytest.approx(0.3453, abs=5e-4)
        assert config.params.p[1] == pytest.approx(0.2769, abs=5e-4)
        assert config.channel.collision_prob == 0.25
        assert config.batteries[0] == BatteryState(20.0, 20.0)
        assert config.params.epsilon == 1.0
        assert float(config.params.nu_bar[0, 0]) == 19.0
        assert float(config.params.y_bar[0, 0]) == 25.0

    def test_config_is_frozen(self):
        config = default_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.horizon = 5
