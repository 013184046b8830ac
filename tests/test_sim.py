import dataclasses

import numpy as np
import pytest

import ehctrl.energy
import ehctrl.scheduler
from ehctrl import telemetry
from ehctrl.config import build_config, default_config, read_raw
from ehctrl.energy import BatteryState
from ehctrl.errors import EnergyCausalityError, InvalidStateError, InvariantViolation
from ehctrl.scheduler import sizing_violations
from ehctrl.sim import (
    SimulationAborted,
    TelemetryRecord,
    per_slot_reception,
    run,
    running_mean,
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
                 "battery", "harvested", "phi", "beta", "nu"):
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
        analytic = per_slot_reception(rec.z, rec.q, result.config.channel.collision_prob)
        for name, values in (
            ("ctrl_perf", rec.lyapunov),
            ("p_tx", rec.z),
            ("p_rx_empirical", rec.received),
            ("energy_balance", rec.harvested - rec.z),
            ("p_rx_analytic", analytic),
        ):
            expected = np.cumsum(values, 0) / denom
            assert np.abs(running_mean(values) - expected).max() <= 1e-9
            finals = np.array([getattr(e, name) for e in result.summary.nodes])
            assert np.abs(finals - expected[-1]).max() <= 1e-9

    def test_empirical_tracks_analytic(self, result):
        nodes = result.summary.nodes
        gap = max(abs(e.p_rx_empirical - e.p_rx_analytic) for e in nodes)
        assert gap <= 4.0 / np.sqrt(result.record.horizon)

    def test_default_sizing_clean(self, result):
        config = result.config
        assert sizing_violations(config.params, [b.capacity for b in config.batteries]) == []


class TestIntegerAccounting:
    @pytest.fixture(scope="class")
    def run_integer(self):
        config = short_config(
            seed=1,
            horizon=3000,
            energy_accounting="integer",
            harvest={"mean": 0.25, "distribution": "uniform"},
            battery={"capacity": 20.0, "initial": 0.0},
        )
        return config, run(config).record

    def test_transmissions_start_from_a_whole_unit(self, run_integer):
        _, rec = run_integer
        assert ((rec.battery < 1.0) & (rec.z > 0.0)).any()  # the gate had work to do
        assert rec.transmitted.any()
        assert np.all(rec.battery[rec.transmitted] >= 1.0)

    def test_battery_spends_transmissions_exactly(self, run_integer):
        config, rec = run_integer
        caps = np.array([b.capacity for b in config.batteries])
        unclipped = rec.battery[:-1] - rec.transmitted[:-1] + rec.harvested[:-1]
        assert (unclipped > caps).any()  # the capacity clamp fires
        assert np.array_equal(rec.battery[1:], np.clip(unclipped, 0.0, caps))

    def test_energy_balance_counts_transmissions(self, run_integer):
        _, rec = run_integer
        paid = (rec.harvested - rec.transmitted).mean(axis=0)
        fluid = (rec.harvested - rec.z).mean(axis=0)
        assert np.abs(paid - fluid).max() > 1e-3  # the two balances differ here
        for node in summarize(rec).nodes:
            assert node.energy_balance == pytest.approx(paid[node.node], rel=1e-12, abs=1e-12)


class TestMatrixPlants:
    """Noiseless 2x2 and 3x3 plants next to a scalar one: each state is the
    switched linear map of the previous one, and V is x'Wx, exactly."""

    @pytest.fixture(scope="class")
    def run_matrix(self):
        plants = [
            {"a_open": [[1.05, 0.1], [0.0, 1.05]], "a_closed": [[0.1, 0.0], [0.02, 0.1]],
             "noise_cov": np.zeros((2, 2)).tolist(), "lyapunov_weight": [[2.0, 0.5], [0.5, 1.0]]},
            {"a_open": 1.1, "a_closed": 0.15, "noise_cov": 0.0},
            {"a_open": [[1.05, 0.2, 0.0], [0.0, 1.0, 0.2], [0.0, 0.0, 0.9]],
             "a_closed": (np.eye(3) * 0.2).tolist(), "noise_cov": np.zeros((3, 3)).tolist(),
             "lyapunov_weight": np.diag([1.0, 2.0, 1.0]).tolist()},
        ]
        config = short_config(seed=4, horizon=600, plants=plants,
                              initial_state=[[3.0, -2.0], 5.0, [1.0, -1.0, 4.0]])
        return config, run(config).record

    def test_state_follows_switched_dynamics(self, run_matrix):
        config, rec = run_matrix
        assert rec.received.any() and not rec.received.all()
        for i, (plant, x) in enumerate(zip(config.plants, rec.states)):
            assert np.abs(x[-1]).max() > 0.0  # still moving at the end
            for t in range(rec.horizon - 1):
                a = plant.a_closed if rec.received[t, i] else plant.a_open
                assert np.array_equal(x[t + 1], a @ x[t])

    def test_certificate_is_quadratic_form(self, run_matrix):
        config, rec = run_matrix
        for i, (plant, x) in enumerate(zip(config.plants, rec.states)):
            v = np.array([xt @ plant.lyapunov_weight @ xt for xt in x])
            assert np.array_equal(rec.lyapunov[:, i], v)


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
        record = TelemetryRecord(
            horizon=50, count=1, required_p=np.array([0.3]), collision_prob=0.25
        )
        record.states = [np.zeros((50, 1))]
        for name in ("lyapunov", "h", "battery", "harvested", "phi", "beta"):
            setattr(record, name, np.zeros((50, 1)))
        record.z = np.ones((50, 1))
        record.q = np.ones((50, 1))
        for name in ("transmitted", "received"):
            setattr(record, name, np.ones((50, 1), dtype=bool))
        record.collided = np.zeros((50, 1), dtype=bool)
        record.nu = np.zeros((50, 1, 1))
        record.violations = {}
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
        assert err.value.cause.kind == "causality"
        assert err.value.slot == 0
        assert err.value.record.violations["causality"] == 1
        assert err.value.record.horizon == 1  # partial telemetry kept

    def test_mirror_divergence_aborts(self, monkeypatch):
        true_step = ehctrl.energy.step_batteries

        def leaky_step(charge, capacity, spend, harvested):
            return true_step(charge, capacity, spend, np.minimum(harvested + 0.05, 1.0))

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
        assert err.value.cause.kind == "nonfinite"
        assert err.value.record.violations["nonfinite"] == 1


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
