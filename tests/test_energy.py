import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ehctrl.scheduler
import ehctrl.sim
from ehctrl.config import build_config, read_raw
from ehctrl.energy import HarvestConfig, draw_harvest, step_batteries
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


def step_battery(charge: float, capacity: float, spend: float, harvested: float) -> float:
    """One battery's next charge through the all-node battery step."""
    (after,) = step_batteries(
        np.array([charge]), np.array([capacity]), np.array([spend]), np.array([harvested]),
    )
    return float(after)


class TestStepBattery:
    def test_balanced_at_capacity(self):
        assert step_battery(20.0, 20.0, 0.5, 0.5) == 20.0

    def test_full_depletion(self):
        assert step_battery(0.3, 20.0, 0.3, 0.0) == 0.0

    def test_upper_clamp(self):
        assert step_battery(19.8, 20.0, 0.0, 1.0) == 20.0

    def test_causality_violation_raises(self, monkeypatch):
        # The run checks causality on the recorded rows: in slot 7 both nodes
        # spend 0.5; node 0 stays causal, node 1 overspends.
        true_z = ehctrl.scheduler.compute_z
        calls = itertools.count()

        def compute_z(*args):
            z = true_z(*args)
            return np.array([0.5, 0.5]) if next(calls) == 7 else z

        monkeypatch.setattr(ehctrl.sim, "SCALAR_MAX_NODES", 0)
        monkeypatch.setattr(ehctrl.scheduler, "compute_z", compute_z)
        raw = read_raw(None)
        raw["harvest"] = {"mean": 1e-12, "distribution": "deterministic"}
        raw["battery"] = [{"capacity": 20.0, "initial": 5.0}, {"capacity": 20.0, "initial": 0.2}]
        with pytest.raises(SimulationAborted) as err:
            run(build_config(raw, seed=1, horizon=20))
        cause = err.value.cause
        assert isinstance(cause, EnergyCausalityError)
        assert cause.slot == 7 and cause.node == 1
        assert cause.observed == 0.5 and cause.expected == pytest.approx(0.2)

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
        charge, capacity = 5.0, 8.0
        spent = harvested = 0.0
        initial = charge
        for frac, gain in steps:
            spend = frac * charge  # always causal by construction
            charge = step_battery(charge, capacity, spend, gain)
            spent += spend
            harvested += gain
            assert 0.0 <= charge <= capacity
            assert spent <= initial + harvested + 1e-9

    def test_idle_battery_never_decreases(self):
        charge, capacity = 1.0, 6.0
        rng = np.random.default_rng(2)
        cfg = HarvestConfig(mean=0.4, distribution="uniform")
        for gain in draw_harvest(cfg, rng, 100):
            previous = charge
            charge = step_battery(charge, capacity, 0.0, gain)
            assert previous <= charge <= capacity


class TestBatteryConfig:
    """A :class:`~ehctrl.sim.SimConfig` takes one capacity and one start
    charge per plant, with 0 < capacity and 0 <= charge <= capacity."""

    @pytest.mark.parametrize("capacity, charge, message", [
        ([0.0, 20.0], [0.0, 20.0], "battery capacity must be positive"),
        ([20.0, -3.0], [20.0, 0.0], "battery capacity must be positive"),
        ([20.0, 20.0], [-0.1, 20.0], "battery charge -0.1 outside [0, 20.0]"),
        ([20.0, 8.0], [20.0, 8.5], "battery charge 8.5 outside [0, 8.0]"),
        ([20.0], [20.0], "batteries must list one entry per plant"),
        ([20.0, 20.0], [20.0, 20.0, 20.0], "batteries must list one entry per plant"),
    ], ids=["capacity-zero", "capacity-negative", "charge-negative", "charge-above-capacity",
            "capacity-short", "charge-long"])
    def test_invalid_battery_rejected(self, capacity, charge, message):
        config = build_config(read_raw(None), horizon=10)
        with pytest.raises(ConfigError, match=re.escape(message)):
            dataclasses.replace(config, capacity=np.array(capacity), charge=np.array(charge))

    def test_arrays_are_copied(self):
        capacity, charge = np.array([20.0, 10.0]), np.array([5.0, 10.0])
        config = dataclasses.replace(build_config(read_raw(None)), capacity=capacity,
                                     charge=charge)
        capacity[0] = charge[0] = 1.0
        assert config.capacity.tolist() == [20.0, 10.0]
        assert config.charge.tolist() == [5.0, 10.0]
