import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import grid_argmin, s_cross_objective, s_own_objective, z_objective
from ehctrl.errors import ConfigError
from ehctrl.scheduler import (
    SchedulerParams,
    apply_dual_step,
    compute_s,
    compute_y,
    compute_z,
    dual_subgradients,
    sizing_violations,
)


def make_params(count=2, epsilon=1.0, nu_bar=19.0, y_bar=25.0, q_c=0.25, p=None):
    if p is None:
        p = np.full(count, 0.3)
    return SchedulerParams(
        epsilon=epsilon, nu_bar=nu_bar, y_bar=y_bar, p=np.asarray(p, dtype=float),
        collision_prob=q_c,
    )


def make_duals(count=2, phi=0.0, nu_own=None, beta=0.0):
    """Multipliers ``(phi, nu, beta)`` with node 0's row of nu set to
    ``nu_own``, other rows zero."""
    nu = np.zeros((count, count))
    if nu_own is not None:
        nu[0] = nu_own
    return np.full(count, float(phi)), nu, np.full(count, float(beta))


def node0_z(duals, q, params, nu_stale=None):
    """Node 0's transmit probability given its stale copies nu_j0 (j != 0)."""
    phi, nu, beta = duals
    count = phi.size
    stale = np.zeros((count, count))
    if nu_stale is not None:
        stale[0, 1:] = np.asarray(nu_stale, dtype=float)[1:]
    return compute_z(nu, beta, stale, np.full(count, q), params)[0]


def zero_grads(count=2):
    return np.zeros(count), np.zeros((count, count)), np.zeros(count)


class TestComputeZ:
    def test_interior(self):
        params = make_params()
        duals = make_duals(nu_own=[1.0, 0.0])
        assert node0_z(duals, 1.0, params) == pytest.approx(0.5)

    def test_boundary_clip_after_halving(self):
        # argmin of z^2 - 3z over [0,1] sits at the boundary, not at 3/2 clipped first
        params = make_params()
        duals = make_duals(nu_own=[3.0, 0.0])
        assert node0_z(duals, 1.0, params) == 1.0

    def test_empty_battery_never_transmits(self):
        # battery empty: beta = eps*b_max with b_max >= nu_bar/eps + 1
        params = make_params(nu_bar=19.0, epsilon=1.0)
        b_max = 20.0
        duals = make_duals(nu_own=[19.0 + 1.0, 0.0], beta=1.0 * b_max)
        for q in (0.0, 0.5, 1.0):
            assert node0_z(duals, q, params, nu_stale=[0.0, 0.0]) == 0.0

    def test_stale_interference_reduces_z(self):
        params = make_params(q_c=0.5)
        quiet = node0_z(make_duals(nu_own=[2.0, 0.0]), 1.0, params)
        loud = node0_z(make_duals(nu_own=[2.0, 0.0]), 1.0, params, nu_stale=[0.0, 1.0])
        assert loud == pytest.approx(quiet - 0.25)


class TestComputeS:
    def test_interior_ratio(self):
        s_own, _ = compute_s(*make_duals(phi=1.0, nu_own=[2.0, 0.0])[:2], make_params())
        assert s_own[0] == pytest.approx(0.5)

    def test_cross_upper_boundary_at_zero_phi(self):
        params = make_params()
        _, s_cross = compute_s(*make_duals(phi=0.0, nu_own=[0.0, 5.0])[:2], params)
        assert s_cross[0, 1] == pytest.approx(1.0 - params.s_floor)

    def test_own_upper_clamp(self):
        s_own, _ = compute_s(*make_duals(phi=3.0, nu_own=[1.0, 0.0])[:2], make_params())
        assert s_own[0] == 1.0

    def test_zero_multiplier_corners(self):
        s_own, s_cross = compute_s(*make_duals(phi=0.7)[:2], make_params())
        assert s_own[0] == 1.0
        assert s_cross[0, 1] == 0.0

    def test_floor_keeps_logs_finite(self):
        params = make_params()
        s_own, s_cross = compute_s(*make_duals(phi=0.0, nu_own=[9.0, 9.0])[:2], params)
        assert s_own[0] == params.s_floor
        assert math.isfinite(math.log(s_own[0]))
        assert math.isfinite(math.log1p(-s_cross[0, 1]))


class TestComputeY:
    def test_tie_stays_zero(self):
        _, nu, _ = make_duals(nu_own=[19.0, 0.0])
        assert compute_y(nu, make_params())[0, 0] == 0.0

    def test_above_cap_releases_full_bound(self):
        _, nu, _ = make_duals(nu_own=[19.5, 0.0])
        assert compute_y(nu, make_params())[0, 0] == 25.0

    def test_below_threshold(self):
        _, nu, _ = make_duals(nu_own=[0.0, 0.0])
        assert np.all(compute_y(nu, make_params())[0] == 0.0)


class TestDualUpdates:
    def test_zero_subgradient_fixed_point(self):
        params = make_params()
        duals = make_duals(phi=1.2, nu_own=[3.0, 0.4], beta=0.7)
        stepped = apply_dual_step(*duals, zero_grads(), params)
        for new, old in zip(stepped, duals):
            assert np.array_equal(new, old)

    def test_beta_projection_at_zero(self):
        params = make_params()
        duals = make_duals(beta=0.0)
        phi_grad, nu_grad, _ = zero_grads()
        grads = (phi_grad, nu_grad, np.full(2, 0.0 - 0.5))
        assert apply_dual_step(*duals, grads, params)[2][0] == 0.0

    def test_cap_overflow_resets_to_zero(self):
        # multiplier at nu_bar + eps with the auxiliary released: next update zeroes it
        params = make_params(nu_bar=19.0, y_bar=25.0, q_c=1.0, epsilon=1.0)
        phi, nu, beta = make_duals(nu_own=[0.0, 20.0])
        q = np.ones(2)
        z = compute_z(nu, beta, np.zeros((2, 2)), q, params)
        s_own, s_cross = compute_s(phi, nu, params)
        y = compute_y(nu, params)
        assert y[0, 1] == 25.0
        grads = dual_subgradients(z, s_own, s_cross, y, q, np.zeros(2), params)
        _, new_nu, _ = apply_dual_step(phi, nu, beta, grads, params)
        # subgradient for the cross component: q_c*z - s - y = 1*z - s - 25 <= 1 - 25
        assert new_nu[0, 1] == 0.0

    def test_mask_freezes_components(self):
        params = make_params()
        duals = make_duals(phi=0.5, nu_own=[2.0, 1.0], beta=0.3)
        grads = (np.ones(2), np.ones((2, 2)), np.ones(2))
        phi, nu, beta = apply_dual_step(*duals, grads, params, available=np.array([True, False]))
        assert nu[0, 0] == pytest.approx(3.0)
        assert nu[0, 1] == pytest.approx(1.0)
        assert phi[0] == pytest.approx(1.5)  # phi never masked
        assert beta[0] == pytest.approx(1.3)

    def test_vacuous_requirement_keeps_phi_zero(self):
        params = make_params(p=[0.0, 0.3])
        phi, nu, beta = make_duals()
        q = np.full(2, 0.5)
        z = compute_z(nu, beta, np.zeros((2, 2)), q, params)
        s_own, s_cross = compute_s(phi, nu, params)
        grads = dual_subgradients(z, s_own, s_cross, compute_y(nu, params), q, q, params)
        new_phi, _, _ = apply_dual_step(phi, nu, beta, grads, params)
        assert new_phi[0] == 0.0

    def test_duals_stay_nonnegative(self):
        params = make_params()
        rng = np.random.default_rng(5)
        duals = make_duals()
        for _ in range(200):
            phi_grad, nu_grad, beta_grad = zero_grads()
            phi_grad[0] = rng.normal(scale=3.0)
            nu_grad[0] = rng.normal(scale=2.0, size=2)
            beta_grad[0] = rng.normal()
            duals = apply_dual_step(*duals, (phi_grad, nu_grad, beta_grad), params)
            assert all(np.all(x >= 0.0) for x in duals)


class TestSizing:
    def test_shipped_defaults_pass(self):
        assert sizing_violations(make_params(), [20.0, 20.0]) == []

    def test_small_auxiliary_cap_fails(self):
        problems = sizing_violations(make_params(y_bar=20.0), [20.0, 20.0])
        assert any("y_bar" in msg for msg in problems)

    def test_small_battery_fails(self):
        problems = sizing_violations(make_params(epsilon=0.5), [20.0, 20.0])
        assert any("capacity" in msg for msg in problems)  # needs >= 39

    def test_large_step_size_flagged(self):
        problems = sizing_violations(make_params(epsilon=2.5, nu_bar=1.0, y_bar=3.0), [3.0, 3.0])
        assert any("step size" in msg for msg in problems)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            make_params(epsilon=0.0)
        with pytest.raises(ConfigError):
            make_params(p=[0.3, 1.0])
        with pytest.raises(ConfigError):
            SchedulerParams(epsilon=1.0, nu_bar=-1.0, y_bar=25.0,
                            p=np.array([0.3]), collision_prob=0.25)


class TestBruteForceOracles:
    def test_z_matches_grid(self):
        params = make_params(q_c=0.4)
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(300):
            nu_own = rng.uniform(0.0, 25.0, 2)
            nu_stale = rng.uniform(0.0, 25.0, 2)
            beta = rng.uniform(0.0, 25.0)
            duals = make_duals(nu_own=nu_own, beta=beta)
            q = rng.uniform(0.0, 1.0)
            z = node0_z(duals, q, params, nu_stale=nu_stale)
            c = nu_own[0] * q - params.collision_prob * nu_stale[1] - beta
            z_grid = grid_argmin(z_objective(c), 0.0, 1.0)
            worst = max(worst, abs(z - z_grid))
        assert worst <= 2e-3

    def test_s_matches_grid(self):
        params = make_params()
        floor = params.s_floor
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(300):
            phi = rng.uniform(0.01, 30.0)
            nu = rng.uniform(0.01, 25.0, 2)
            s_own, s_cross = compute_s(*make_duals(phi=phi, nu_own=nu)[:2], params)
            own_grid = grid_argmin(s_own_objective(phi, nu[0]), floor, 1.0)
            cross_grid = grid_argmin(s_cross_objective(phi, nu[1]), 0.0, 1.0 - floor)
            worst = max(worst, abs(s_own[0] - own_grid), abs(s_cross[0, 1] - cross_grid))
        assert worst <= 2e-3


class TestMultiplierCapProperty:
    @given(st.integers(min_value=0, max_value=10_000))
    def test_cap_holds_under_random_primals(self, seed):
        # Any valid primal sequence with the thresholded auxiliary keeps
        # nu <= nu_bar + eps, provided y_bar >= (nu_bar + 2 eps)/eps.
        params = make_params(nu_bar=3.0, y_bar=5.0, q_c=1.0, epsilon=1.0)
        rng = np.random.default_rng(seed)
        duals = make_duals()
        for _ in range(80):
            y = compute_y(duals[1], params)
            z = np.full(2, rng.uniform(0.0, 1.0))
            s_own = np.full(2, rng.uniform(params.s_floor, 1.0))
            s_cross = np.array([[0.0, rng.uniform(0.0, 1.0 - params.s_floor)], [0.0, 0.0]])
            q = np.full(2, rng.uniform(0, 1))
            e = np.full(2, rng.uniform(0, 1))
            grads = dual_subgradients(z, s_own, s_cross, y, q, e, params)
            duals = apply_dual_step(*duals, grads, params)
            assert np.all(duals[1] <= params.nu_bar + params.epsilon + 1e-9)


def test_adversarial_cap_reset_trajectory():
    """Drive a cross multiplier over its cap and watch the documented
    reset: it exceeds the cap by at most one step, the auxiliary releases,
    and the next update lands exactly on zero."""
    params = make_params(nu_bar=2.0, y_bar=4.0, q_c=1.0, epsilon=1.0)
    duals = make_duals()
    history = []
    for _ in range(12):
        y = compute_y(duals[1], params)
        # adversarial primal: full transmission, no reception slack
        grads = dual_subgradients(
            z=np.ones(2), s_own=np.full(2, params.s_floor), s_cross=np.zeros((2, 2)),
            y=y, q=np.zeros(2), e=np.ones(2), params=params,
        )
        duals = apply_dual_step(*duals, grads, params)
        history.append(duals[1][0, 1])
    history = np.array(history)
    assert history.max() > params.nu_bar[0, 1]                      # cap exceeded
    assert history.max() <= params.nu_bar[0, 1] + params.epsilon    # but bounded
    over = np.nonzero(history > params.nu_bar[0, 1])[0]
    assert history[over[0] + 1] == 0.0                              # reset event
