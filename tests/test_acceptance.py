"""Acceptance suite for the shipped two-plant experiment.

Each test checks one numbered criterion at its stated tolerance and prints
one PASS/FAIL line (run pytest -s to see them). Simulation results are
cached per configuration across criteria; all cached runs completed without
a single runtime-invariant abort, which criteria 4-6 then re-verify from the
raw telemetry.
"""

import numpy as np
import pytest

from conftest import (
    current_copies,
    grid_argmin,
    grid_required_probability,
    s_cross_objective,
    s_own_objective,
    z_mismatches,
    z_objective,
)
from ehctrl import telemetry
from ehctrl.config import build_config, read_raw
from ehctrl.control import PlantModel, required_reception_probability
from ehctrl.scheduler import (
    SchedulerParams,
    apply_dual_step,
    compute_s,
    compute_y,
    compute_z,
    dual_subgradients,
    sizing_violations,
)
from ehctrl.sim import run

DEFAULT_SEED = 1
EXTRA_SEEDS = tuple(range(2, 12))
ALL_SEEDS = (DEFAULT_SEED,) + EXTRA_SEEDS
PIGGYBACK_BOUNDS = (5, 20, 50)

CTRL_HARD_BOUND = 5.0
CTRL_BAND = (2.5, 5.0)
RX_MARGIN = 0.02
RX_BANDS = ((0.30, 0.42), (0.24, 0.34))
BALANCE_CENTERS = (0.05, 0.14)
BALANCE_HALF_WIDTH = 0.05
MIRROR_TOL = 1e-9
DUAL_TOL = 1e-9
ORACLE_TOL = 2e-3
LMI_TOL = 1e-3


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


class RunCache:
    def __init__(self):
        self._results = {}

    def get(self, seed, mode="always-on", bound=1):
        key = (seed, mode, bound)
        if key not in self._results:
            raw = read_raw(None)
            raw["availability"] = {"mode": mode, "prob": 0.5, "staleness_bound": bound}
            config = build_config(raw, seed=seed)
            self._results[key] = run(config)
        return self._results[key]

    def all_results(self):
        return list(self._results.values())


@pytest.fixture(scope="module")
def cache():
    return RunCache()


@pytest.fixture(scope="module")
def acceptance_runs(cache):
    """Materialize every acceptance-scope run: 11 synchronous seeds plus
    piggyback sharing at each staleness bound."""
    runs = [cache.get(seed) for seed in ALL_SEEDS]
    for bound in PIGGYBACK_BOUNDS:
        runs += [cache.get(seed, mode="piggyback", bound=bound) for seed in ALL_SEEDS]
    return runs


def test_criterion_1_required_probabilities():
    plant_1 = PlantModel(a_open=1.1, a_closed=0.15, noise_cov=1.0,
                         lyapunov_weight=1.0, decrease_rate=0.8)
    plant_2 = PlantModel(a_open=1.05, a_closed=0.1, noise_cov=1.0,
                         lyapunov_weight=1.0, decrease_rate=0.8)
    p1 = required_reception_probability(plant_1)
    p2 = required_reception_probability(plant_2)
    ok = abs(p1 - 0.3453) <= 5e-4 and abs(p2 - 0.2769) <= 5e-4
    _report(1, ok, f"p1 = {p1:.6f}, p2 = {p2:.6f}")


def _stability_check(results):
    finals = np.array([r.summary.ctrl_perf for r in results])
    below_bound = bool((finals < CTRL_HARD_BOUND).all())
    in_band = [
        bool(((row >= CTRL_BAND[0]) & (row < CTRL_BAND[1])).all()) for row in finals[1:]
    ]
    enough_in_band = sum(in_band) >= 9
    return below_bound, enough_in_band, finals


def test_criterion_2_stability(cache):
    results = [cache.get(seed) for seed in ALL_SEEDS]
    below, in_band, finals = _stability_check(results)
    _report(
        2, below and in_band,
        f"ctrl_perf range [{finals.min():.2f}, {finals.max():.2f}] over "
        f"{len(results)} seeds, bound {CTRL_HARD_BOUND}",
    )


def _reception_check(results):
    required = results[0].config.params.p
    ok = True
    worst_margin = np.inf
    for result in results:
        empirical = result.summary.p_rx_empirical
        analytic = result.summary.p_rx_analytic
        worst_margin = min(worst_margin, float((empirical - required).min()))
        ok &= bool((empirical >= required - RX_MARGIN).all())
        for i, (lo, hi) in enumerate(RX_BANDS):
            ok &= lo <= analytic[i] <= hi
    return ok, worst_margin


def test_criterion_3_reception_requirement(cache):
    results = [cache.get(seed) for seed in ALL_SEEDS]
    ok, worst = _reception_check(results)
    arr = np.array([r.summary.p_rx_analytic for r in results])
    _report(
        3, ok,
        f"p_rx_1 in [{arr[:, 0].min():.4f}, {arr[:, 0].max():.4f}], "
        f"p_rx_2 in [{arr[:, 1].min():.4f}, {arr[:, 1].max():.4f}], "
        f"worst empirical margin {worst:+.4f}",
    )


def _random_sized_config(rng):
    count = int(rng.integers(1, 4))
    rho = float(rng.uniform(0.5, 0.95))
    plants = []
    for _ in range(count):
        a_closed = float(np.sqrt(rho) * rng.uniform(0.05, 0.9))
        a_open = float(rng.uniform(0.2, 1.3))
        plants.append({"a_open": a_open, "a_closed": a_closed, "noise_cov": 1.0,
                       "lyapunov_weight": 1.0, "decrease_rate": rho})
    epsilon = float(rng.uniform(0.1, 2.0))
    nu_bar = float(rng.uniform(0.5, 25.0))
    y_slack = float(rng.choice([0.0, rng.uniform(0.0, 0.5)]))
    b_slack = float(rng.choice([0.0, rng.uniform(0.0, 0.5)]))
    capacity = (nu_bar / epsilon + 1.0) * (1.0 + b_slack)
    raw = read_raw(None)
    raw["plants"] = plants
    raw["channel"] = {
        "fading_mean": float(rng.uniform(0.5, 4.0)),
        "collision_prob": float(rng.uniform(0.0, 1.0)),
        "decode": {
            "kind": str(rng.choice(["exp", "logistic"])),
            "rate": float(rng.uniform(0.5, 4.0)),
            "midpoint": float(rng.uniform(0.0, 3.0)),
        },
    }
    raw["harvest"] = {
        "mean": float(rng.uniform(0.05, 1.0)),
        "distribution": str(rng.choice(["bernoulli", "deterministic", "uniform"])),
    }
    raw["battery"] = {"capacity": capacity, "initial": float(rng.uniform(0.0, capacity))}
    raw["scheduler"] = {
        "epsilon": epsilon,
        "nu_bar": nu_bar,
        "y_bar": (nu_bar + 2.0 * epsilon) / epsilon * (1.0 + y_slack),
        "s_floor": 1e-6,
    }
    raw["availability"] = {
        "mode": str(rng.choice(["always-on", "random", "piggyback"])),
        "prob": float(rng.uniform(0.2, 1.0)),
        "staleness_bound": int(rng.integers(1, 31)),
    }
    return build_config(raw, seed=int(rng.integers(0, 2**63)), horizon=400)


def test_criterion_4_energy_causality(acceptance_runs):
    worst = -np.inf
    for result in acceptance_runs:
        record = result.record
        assert result.summary.violations["causality"] == 0
        worst = max(worst, float((record.z - record.battery).max()))
    rng = np.random.default_rng(20_240_817)
    stress_runs = 0
    for _ in range(200):
        config = _random_sized_config(rng)
        assert sizing_violations(config.params, config.capacity) == []
        result = run(config)  # any causality breach aborts and fails here
        assert result.summary.violations["causality"] == 0
        stress_runs += 1
        worst = max(worst, float((result.record.z - result.record.battery).max()))
    ok = worst <= 1e-12
    _report(
        4, ok,
        f"{len(acceptance_runs)} acceptance runs + {stress_runs} stress runs, "
        f"worst z - b = {worst:.2e}",
    )


def test_criterion_5_dual_bound(acceptance_runs):
    worst_excess = -np.inf
    for result in acceptance_runs:
        params = result.config.params
        cap = params.nu_bar[None, :, :] + params.epsilon
        worst_excess = max(worst_excess, float((result.record.nu - cap).max()))
    bounded = worst_excess <= DUAL_TOL

    # Adversarial run: drive a multiplier past its cap and watch the reset.
    params = SchedulerParams(epsilon=1.0, nu_bar=2.0, y_bar=4.0,
                             p=np.array([0.3, 0.3]), collision_prob=1.0)
    phi, nu, beta = np.zeros(2), np.zeros((2, 2)), np.zeros(2)
    trajectory = []
    for _ in range(12):
        y = compute_y(nu, params)
        grads = dual_subgradients(
            z=np.ones(2), s_own=np.full(2, params.s_floor), s_cross=np.zeros((2, 2)),
            y=y, q=np.zeros(2), e=np.ones(2), params=params,
        )
        phi, nu, beta = apply_dual_step(phi, nu, beta, grads, params)
        trajectory.append(nu[0, 1])
    trajectory = np.array(trajectory)
    exceeded = trajectory.max() > 2.0
    capped = trajectory.max() <= 2.0 + 1.0 + DUAL_TOL
    over = np.nonzero(trajectory > 2.0)[0]
    reset = exceeded and trajectory[over[0] + 1] == 0.0
    ok = bounded and exceeded and capped and reset
    _report(
        5, ok,
        f"worst nu excess {worst_excess:.2e}; adversarial peak "
        f"{trajectory.max():.2f} reset to {trajectory[over[0] + 1] if exceeded else 'n/a'}",
    )


def test_criterion_6_mirror_identity(acceptance_runs):
    worst = -np.inf
    for result in acceptance_runs:
        record = result.record
        eps = result.config.params.epsilon
        mirror = eps * (result.config.capacity[None, :] - record.battery)
        worst = max(worst, float(np.abs(record.beta - mirror).max()))
    ok = worst <= MIRROR_TOL
    _report(6, ok, f"max |beta - eps*(capacity - charge)| = {worst:.2e}")


def test_criterion_7_energy_balance(cache):
    results = [cache.get(seed) for seed in ALL_SEEDS]
    balances = np.array([r.summary.energy_balance for r in results])
    nonneg = bool((balances >= 0.0).all())
    ordering = bool((balances[:, 0] < balances[:, 1]).all())
    in_band = all(
        abs(balances[:, i] - BALANCE_CENTERS[i]).max() <= BALANCE_HALF_WIDTH
        for i in range(2)
    )
    _report(
        7, nonneg and ordering and in_band,
        f"balance_1 in [{balances[:, 0].min():.4f}, {balances[:, 0].max():.4f}], "
        f"balance_2 in [{balances[:, 1].min():.4f}, {balances[:, 1].max():.4f}]",
    )


def test_criterion_8_optimizer_oracles():
    params = SchedulerParams(epsilon=1.0, nu_bar=19.0, y_bar=25.0,
                             p=np.array([0.3, 0.3]), collision_prob=0.4)
    rng = np.random.default_rng(88)
    worst_primal = 0.0
    for _ in range(1000):
        # Node 0's duals; node 1 only supplies the stale copy nu_10.
        phi = float(rng.uniform(0.01, 30.0))
        nu_own = rng.uniform(0.01, 25.0, 2)
        nu_stale = rng.uniform(0.0, 25.0, 2)
        beta = float(rng.uniform(0.0, 25.0))
        nu = np.array([nu_own, [0.0, 0.0]])
        stale = np.array([[0.0, nu_stale[1]], [0.0, 0.0]])
        q = float(rng.uniform(0.0, 1.0))
        z = compute_z(nu, np.full(2, beta), stale, np.full(2, q), params)[0]
        c = nu_own[0] * q - params.collision_prob * nu_stale[1] - beta
        worst_primal = max(worst_primal, abs(z - grid_argmin(z_objective(c), 0.0, 1.0)))
        s_own, s_cross = compute_s(np.full(2, phi), nu, params)
        own_oracle = grid_argmin(s_own_objective(phi, nu_own[0]), params.s_floor, 1.0)
        cross_oracle = grid_argmin(
            s_cross_objective(phi, nu_own[1]), 0.0, 1.0 - params.s_floor
        )
        worst_primal = max(
            worst_primal, abs(s_own[0] - own_oracle), abs(s_cross[0, 1] - cross_oracle)
        )

    worst_lmi = 0.0
    instances = 0
    while instances < 50:
        if instances % 2 == 0:
            model = PlantModel(
                a_open=float(rng.uniform(0.3, 1.4)),
                a_closed=float(rng.uniform(0.05, 0.85)),
                noise_cov=1.0, lyapunov_weight=float(rng.uniform(0.5, 3.0)),
                decrease_rate=float(rng.uniform(0.5, 0.95)),
            )
        else:
            scale = rng.uniform(0.05, 0.3)
            weight = np.diag(rng.uniform(0.5, 2.0, 2))
            model = PlantModel(
                a_open=rng.uniform(-0.6, 0.6, (2, 2)) + np.eye(2) * rng.uniform(0.8, 1.2),
                a_closed=rng.uniform(-scale, scale, (2, 2)),
                noise_cov=np.eye(2), lyapunov_weight=weight,
                decrease_rate=float(rng.uniform(0.5, 0.95)),
            )
        try:
            p = required_reception_probability(model, tol=1e-6)
        except Exception:
            continue
        worst_lmi = max(worst_lmi, abs(p - grid_required_probability(model, step=1e-4)))
        instances += 1

    ok = worst_primal <= ORACLE_TOL and worst_lmi <= LMI_TOL
    _report(
        8, ok,
        f"primal max deviation {worst_primal:.2e} (tol {ORACLE_TOL}), "
        f"bisection max deviation {worst_lmi:.2e} over {instances} instances",
    )


def test_criterion_9_asynchrony(cache):
    ok = True
    details = []
    for bound in PIGGYBACK_BOUNDS:
        results = [cache.get(seed, mode="piggyback", bound=bound) for seed in ALL_SEEDS]
        below, in_band, finals = _stability_check(results)
        rx_ok, _ = _reception_check(results)
        clean = all(
            sum(r.summary.violations.values()) == 0 for r in results
        )
        mirror_ok = True
        dual_ok = True
        for result in results:
            eps = result.config.params.epsilon
            mirror = eps * (result.config.capacity[None, :] - result.record.battery)
            mirror_ok &= bool(np.abs(result.record.beta - mirror).max() <= MIRROR_TOL)
            cap = result.config.params.nu_bar[None, :, :] + eps
            dual_ok &= bool((result.record.nu <= cap + DUAL_TOL).all())
        ok &= below and in_band and rx_ok and clean and mirror_ok and dual_ok
        details.append(f"B={bound}: ctrl_max={finals.max():.2f}")

    # Synchronous limit: with an exchange every slot, every z is, bit for
    # bit, the z of the other nodes' current multipliers.
    synced = cache.get(DEFAULT_SEED)
    stale = z_mismatches(synced.record, synced.config.params, current_copies(synced.record.nu))
    ok &= not stale
    _report(9, ok, "; ".join(details) + f"; always-on z off the current multipliers in "
                   f"{len(stale)}/{synced.record.horizon} slots")


def test_criterion_10_determinism(cache, tmp_path):
    res_a = cache.get(DEFAULT_SEED)
    res_b = run(res_a.config)  # fresh run of the identical config
    telemetry.write_slots_csv(res_a.record, tmp_path / "a.csv")
    telemetry.write_slots_csv(res_b.record, tmp_path / "b.csv")
    rerun_same = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    _report(10, rerun_same, f"rerun identical: {rerun_same}")
