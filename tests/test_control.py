import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import grid_required_probability
from ehctrl.control import (
    PlantBank,
    PlantModel,
    control_performance_bound,
    required_reception_probability,
)
from ehctrl.errors import ConfigError, InfeasibleTargetError


class FixedNormal:
    """Stand-in noise stream that returns the given standard normal draw."""

    def __init__(self, normal):
        self.normal = np.asarray(normal, dtype=float)

    def standard_normal(self, size):
        return self.normal.reshape(size)


def one_slot(model, x, received, normal) -> PlantBank:
    """A bank of a single plant stepped through one slot from state ``x``
    with the given standard normal draw."""
    bank = PlantBank([model], [np.asarray(x, dtype=float)])
    bank.history(1)
    bank.replay(np.array([[received]]), bank.draw_noise([FixedNormal(normal)], 1), 0)
    return bank


def step_one(model, x, received, normal):
    return one_slot(model, x, received, normal).x[0][0, :, 0]


def certificate(model, x):
    return one_slot(model, x, False, np.zeros(model.dim)).certificates(1)[0, 0]


def scalar_plant(a_open, a_closed, rho=0.8, weight=1.0, cov=1.0) -> PlantModel:
    return PlantModel(
        a_open=a_open, a_closed=a_closed, noise_cov=cov,
        lyapunov_weight=weight, decrease_rate=rho,
    )


class TestStepPlant:
    def test_open_loop_scalar(self):
        x = step_one(scalar_plant(1.1, 0.15), [1.0], False, [0.0])
        assert x[0] == pytest.approx(1.1)

    def test_zero_fixed_point(self):
        x = step_one(scalar_plant(1.1, 0.15), [0.0], True, [0.0])
        assert x[0] == 0.0

    def test_matrix_closed_loop(self):
        model = PlantModel(
            a_open=[[1.05, 0.1], [0.0, 1.05]],
            a_closed=0.1 * np.eye(2),
            noise_cov=np.eye(2),
            lyapunov_weight=np.eye(2),
            decrease_rate=0.8,
        )
        x = step_one(model, [1.0, 1.0], True, [0.5, -0.5])
        assert x == pytest.approx([0.6, -0.4])

    def test_nonfinite_state_rejected(self):
        # flagged for the run to abort on
        plant = scalar_plant(1.1, 0.15)
        for x, normal, bad in (([math.nan], [0.0], True), ([1.0], [math.inf], True),
                               ([1.0], [0.0], False)):
            assert one_slot(plant, x, True, normal).nonfinite(0, 1).tolist() == [[bad]]


class TestLyapunovValue:
    def test_scalar_square(self):
        assert certificate(scalar_plant(1.1, 0.15), [2.0]) == pytest.approx(4.0)

    def test_euclidean(self):
        model = PlantModel(
            a_open=np.eye(2) * 1.05, a_closed=np.eye(2) * 0.1,
            noise_cov=np.eye(2), lyapunov_weight=np.eye(2), decrease_rate=0.8,
        )
        assert certificate(model, [3.0, 4.0]) == pytest.approx(25.0)

    def test_weighted_quadratic(self):
        model = PlantModel(
            a_open=np.eye(2) * 1.05, a_closed=np.eye(2) * 0.1,
            noise_cov=np.eye(2), lyapunov_weight=np.diag([2.0, 1.0]), decrease_rate=0.8,
        )
        assert certificate(model, [1.0, 1.0]) == pytest.approx(3.0)


class TestRequiredReceptionProbability:
    def test_first_plant_value(self):
        p = required_reception_probability(scalar_plant(1.1, 0.15))
        assert p == pytest.approx(0.3453, abs=5e-4)

    def test_second_plant_value(self):
        p = required_reception_probability(scalar_plant(1.05, 0.1))
        assert p == pytest.approx(0.2769, abs=5e-4)

    def test_stable_open_loop_needs_nothing(self):
        assert required_reception_probability(scalar_plant(0.5, 0.1)) == 0.0

    def test_infeasible_closed_loop(self):
        with pytest.raises(InfeasibleTargetError):
            required_reception_probability(scalar_plant(1.1, 0.95, rho=0.8))

    def test_degenerate_equal_gains(self):
        # No mixing weight changes feasibility when both gains coincide.
        assert required_reception_probability(scalar_plant(0.5, 0.5, rho=0.3)) == 0.0
        with pytest.raises(InfeasibleTargetError):
            required_reception_probability(scalar_plant(1.0, 1.0, rho=0.8))

    def test_matrix_bisection_against_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a_closed = rng.uniform(-0.3, 0.3, (2, 2))
            a_open = rng.uniform(-1.0, 1.0, (2, 2)) + np.eye(2) * rng.uniform(0.9, 1.2)
            model = PlantModel(
                a_open=a_open, a_closed=a_closed, noise_cov=np.eye(2),
                lyapunov_weight=np.eye(2), decrease_rate=0.8,
            )
            try:
                p = required_reception_probability(model, tol=1e-6)
            except InfeasibleTargetError:
                assert grid_required_probability(model) == math.inf or (
                    grid_required_probability(model) > 0.999
                )
                continue
            oracle = grid_required_probability(model, step=1e-4)
            assert p == pytest.approx(oracle, abs=1e-3)

    def test_feasibility_of_returned_value(self):
        tol = 1e-6
        for a_open, a_closed in ((1.1, 0.15), (1.05, 0.1), (1.3, 0.4)):
            model = scalar_plant(a_open, a_closed)
            p = required_reception_probability(model, tol=tol)
            pencil = model.decrease_rate - p * a_closed**2 - (1 - p) * a_open**2
            assert pencil >= -tol

    @given(
        a_open=st.floats(min_value=0.1, max_value=2.0),
        bump=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_monotone_in_open_loop_gain(self, a_open, bump):
        base = required_reception_probability(scalar_plant(a_open, 0.15))
        bumped = required_reception_probability(scalar_plant(a_open + bump, 0.15))
        assert bumped >= base - 1e-12


class TestPerformanceBound:
    def test_reference_operating_point(self):
        assert control_performance_bound(scalar_plant(1.1, 0.15)) == pytest.approx(5.0)

    def test_noiseless(self):
        assert control_performance_bound(scalar_plant(1.1, 0.15, cov=0.0)) == 0.0

    def test_weighted_trace(self):
        model = PlantModel(
            a_open=np.eye(2) * 1.05, a_closed=np.eye(2) * 0.1,
            noise_cov=np.eye(2), lyapunov_weight=np.diag([2.0, 1.0]), decrease_rate=0.5,
        )
        assert control_performance_bound(model) == pytest.approx(6.0)


def test_geometric_decrease_under_forced_reception():
    model = PlantModel(
        a_open=[[1.2, 0.0], [0.1, 1.1]],
        a_closed=[[0.3, 0.1], [0.0, 0.2]],
        noise_cov=np.zeros((2, 2)),
        lyapunov_weight=np.diag([1.0, 2.0]),
        decrease_rate=0.8,
    )
    # A_c'WA_c <= rho*W must hold for the claim to apply.
    pencil = model.decrease_rate * model.lyapunov_weight - (
        model.a_closed.T @ model.lyapunov_weight @ model.a_closed
    )
    assert np.linalg.eigvalsh(pencil).min() >= 0
    state = np.array([3.0, -2.0])
    value = certificate(model, state)
    for _ in range(30):
        state = step_one(model, state, True, np.zeros(2))
        new_value = certificate(model, state)
        assert new_value <= model.decrease_rate * value + 1e-12
        value = new_value


def test_model_validation():
    with pytest.raises(ConfigError):
        scalar_plant(1.1, 0.15, rho=1.0)
    with pytest.raises(ConfigError):
        scalar_plant(1.1, 0.15, weight=-1.0)
    with pytest.raises(ConfigError):
        PlantModel(a_open=np.eye(2), a_closed=np.eye(2), noise_cov=[[1, 2], [3, 1]],
                   lyapunov_weight=np.eye(2), decrease_rate=0.8)
