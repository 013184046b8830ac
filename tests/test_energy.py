import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ehctrl.scheduler
from ehctrl.config import build_config, read_raw
from ehctrl.energy import BatteryState, HarvestConfig, draw_harvest, step_batteries
from ehctrl.errors import ConfigError, EnergyCausalityError
from ehctrl.sim import SimulationAborted, run


class TestHarvest:
    def test_bernoulli_rate(self):
        cfg = HarvestConfig(mean=0.5, distribution="bernoulli")
        rng = np.random.default_rng(0)
        draws = draw_harvest(cfg, rng, 100_000)
        assert np.mean(draws) == pytest.approx(0.5, abs=0.01)
        assert set(draws.tolist()) <= {0.0, 1.0}

    def test_deterministic(self):
        cfg = HarvestConfig(mean=0.5, distribution="deterministic")
        rng = np.random.default_rng(0)
        assert np.all(draw_harvest(cfg, rng, 10) == 0.5)

    def test_uniform_mean_and_support(self):
        cfg = HarvestConfig(mean=0.5, distribution="uniform")
        rng = np.random.default_rng(0)
        draws = draw_harvest(cfg, rng, 50_000)
        assert draws.mean() == pytest.approx(0.5, abs=0.01)
        assert draws.min() >= 0.0 and draws.max() <= 1.0

    def test_zero_mean_rejected(self):
        with pytest.raises(ConfigError):
            HarvestConfig(mean=0.0)
        with pytest.raises(ConfigError):
            HarvestConfig(mean=1.5, distribution="bernoulli")


def step_battery(state, spend, harvested):
    """One battery through the all-node battery step."""
    charge = step_batteries(
        np.array([state.charge]), np.array([state.capacity]),
        np.array([float(spend)]), np.array([float(harvested)]),
    )
    return BatteryState(charge=float(charge[0]), capacity=state.capacity)


class TestStepBattery:
    def test_balanced_at_capacity(self):
        state = step_battery(BatteryState(20.0, 20.0), 0.5, 0.5)
        assert state.charge == 20.0

    def test_full_depletion(self):
        state = step_battery(BatteryState(0.3, 20.0), 0.3, 0.0)
        assert state.charge == 0.0

    def test_upper_clamp(self):
        state = step_battery(BatteryState(19.8, 20.0), 0.0, 1.0)
        assert state.charge == 20.0

    def test_causality_violation_raises(self, monkeypatch):
        # The run checks causality on the recorded rows: in slot 7 both nodes
        # spend 0.5; node 0 stays causal, node 1 overspends.
        true_z = ehctrl.scheduler.compute_z
        calls = itertools.count()

        def compute_z(*args):
            z = true_z(*args)
            return np.array([0.5, 0.5]) if next(calls) == 7 else z

        monkeypatch.setattr(ehctrl.scheduler, "compute_z", compute_z)
        raw = read_raw(None)
        raw["harvest"] = {"mean": 1e-12, "distribution": "deterministic"}
        raw["battery"] = [{"capacity": 20.0, "initial": 5.0}, {"capacity": 20.0, "initial": 0.2}]
        with pytest.raises(SimulationAborted) as err:
            run(build_config(raw, seed=1, horizon=20))
        cause = err.value.cause
        assert isinstance(cause, EnergyCausalityError)
        assert cause.slot == 7 and cause.node == 1
        assert cause.spend == 0.5 and cause.charge == pytest.approx(0.2)

    def test_charge_range_enforced(self):
        with pytest.raises(ConfigError):
            BatteryState(21.0, 20.0)
        with pytest.raises(ConfigError):
            BatteryState(-0.1, 20.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),   # requested spend fraction
                st.floats(min_value=0.0, max_value=1.5),   # harvest
            ),
            max_size=60,
        )
    )
    def test_prefix_causality_and_bounds(self, steps):
        state = BatteryState(5.0, 8.0)
        spent = harvested = 0.0
        initial = state.charge
        for frac, gain in steps:
            spend = frac * state.charge  # always causal by construction
            state = step_battery(state, spend, gain)
            spent += spend
            harvested += gain
            assert 0.0 <= state.charge <= state.capacity
            assert spent <= initial + harvested + 1e-9

    def test_idle_battery_never_decreases(self):
        state = BatteryState(1.0, 6.0)
        rng = np.random.default_rng(2)
        cfg = HarvestConfig(mean=0.4, distribution="uniform")
        previous = state.charge
        for gain in draw_harvest(cfg, rng, 100):
            state = step_battery(state, 0.0, gain)
            assert state.charge >= previous
            previous = state.charge
        assert state.charge <= state.capacity
