import numpy as np
import pytest
from hypothesis import given, strategies as st

from ehctrl.energy import BatteryState, HarvestConfig, draw_harvest, step_batteries
from ehctrl.errors import ConfigError, EnergyCausalityError


class TestHarvest:
    def test_bernoulli_rate(self):
        cfg = HarvestConfig(mean=0.5, distribution="bernoulli")
        rng = np.random.default_rng(0)
        draws = [draw_harvest(cfg, rng) for _ in range(100_000)]
        assert np.mean(draws) == pytest.approx(0.5, abs=0.01)
        assert set(draws) <= {0.0, 1.0}

    def test_deterministic(self):
        cfg = HarvestConfig(mean=0.5, distribution="deterministic")
        rng = np.random.default_rng(0)
        assert all(draw_harvest(cfg, rng) == 0.5 for _ in range(10))

    def test_uniform_mean_and_support(self):
        cfg = HarvestConfig(mean=0.5, distribution="uniform")
        rng = np.random.default_rng(0)
        draws = np.array([draw_harvest(cfg, rng) for _ in range(50_000)])
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

    def test_causality_violation_raises(self):
        with pytest.raises(EnergyCausalityError) as err:
            # node 0 stays causal; node 1 overspends
            step_batteries(np.array([5.0, 0.2]), np.full(2, 20.0), np.array([0.5, 0.5]),
                           np.ones(2), slot=7)
        assert err.value.slot == 7 and err.value.node == 1

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
        for _ in range(100):
            state = step_battery(state, 0.0, draw_harvest(cfg, rng))
            assert state.charge >= previous
            previous = state.charge
        assert state.charge <= state.capacity
