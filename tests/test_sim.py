import copy
import dataclasses
import gc
import itertools
import pickle
import zlib

import numpy as np
import pytest

import ehctrl.energy
import ehctrl.scheduler
import ehctrl.sim
from conftest import current_copies, piggyback_copies, z_mismatches
from ehctrl import telemetry
from ehctrl.comm import ChannelConfig
from ehctrl.config import build_config, read_raw
from ehctrl.control import PlantModel
from ehctrl.coordination import AvailabilitySchedule, DualMailbox
from ehctrl.energy import HarvestConfig
from ehctrl.errors import EnergyCausalityError, InvalidStateError, InvariantViolation
from ehctrl.scheduler import SchedulerParams, sizing_violations
from ehctrl.sim import (
    SCALAR_MAX_NODES,
    SUMMARY_FIELDS,
    SimConfig,
    SimulationAborted,
    TelemetryRecord,
    _allocate,
    _array_chunk,
    _scalar_chunk,
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


# Config overrides of each chunk-size case and the slot it aborts at:
# always-on, random, piggyback with integer accounting, the array core with
# a matrix stack, and a plant that diverges.
CHUNK_CASES = {
    "always-on": ({}, None),
    "random": ({"availability": {"mode": "random", "prob": 0.5, "staleness_bound": 10}}, None),
    "piggyback-integer": ({"availability": {"mode": "piggyback", "staleness_bound": 5},
                           "energy_accounting": "integer"}, None),
    "nine-nodes": ({"plants": [{"a_open": [[1.05, 0.1], [0.0, 1.05]],
                                "a_closed": [[0.1, 0.0], [0.0, 0.1]]}]
                              + [{"a_open": 1.05, "a_closed": 0.1}] * 8,
                    "availability": {"mode": "random"}, "channel": {"collision_prob": 0.01}},
                   None),
    "abort": ({"plants": [{"a_open": 1e10, "a_closed": 0.1}, {"a_open": 1.05, "a_closed": 0.1}],
               "required_reception": [0.5, 0.3]}, 63),
}


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

    @pytest.mark.parametrize("overrides, aborted_at", CHUNK_CASES.values(), ids=CHUNK_CASES)
    def test_chunk_size_leaves_record(self, monkeypatch, overrides, aborted_at):
        """Each stream gives the same values drawn a chunk at a time as slot
        by slot, so where the chunks split the horizon moves no record byte
        and no abort."""
        config = short_config(horizon=700, **overrides)
        outcomes = []
        for chunk in (1, 7, 256, 1000):
            monkeypatch.setattr(ehctrl.sim, "DRAW_CHUNK", chunk)
            try:
                record = run(config).record
            except SimulationAborted as err:
                record = err.record
            slot = None if record.breach is None else record.breach.slot
            outcomes.append((slot, [a.tobytes() for a in record_arrays(record)]))
        assert outcomes[0][0] == aborted_at
        assert all(outcome == outcomes[0] for outcome in outcomes[1:])


@pytest.fixture(scope="module")
def result():
    return run(short_config(seed=2, horizon=2500))


class TestRunInvariants:
    def test_no_violations(self, result):
        assert result.summary.violations == {
            "causality": 0, "mirror": 0, "dual_bound": 0, "nonfinite": 0,
        }

    def test_completed_run_has_no_breach(self, result):
        assert result.record.breach is None

    def test_causality_every_slot(self, result):
        assert np.all(result.record.z <= result.record.battery + 1e-12)

    def test_mirror_identity_every_slot(self, result):
        config = result.config
        eps = config.params.epsilon
        mirror = eps * (config.capacity[None, :] - result.record.battery)
        assert np.abs(result.record.beta - mirror).max() <= 1e-9

    def test_multiplier_caps_every_slot(self, result):
        params = result.config.params
        cap = params.nu_bar[None, :, :] + params.epsilon
        assert np.all(result.record.nu <= cap + 1e-9)

    def test_running_averages_recomputable(self, result):
        rec = result.record
        denom = np.arange(1, rec.horizon + 1)[:, None]
        analytic = per_slot_reception(rec.z, rec.q, result.config.params.collision_prob)
        for name, values in (
            ("ctrl_perf", rec.lyapunov),
            ("p_tx", rec.z),
            ("p_rx_empirical", rec.received),
            ("energy_balance", rec.harvested - rec.z),
            ("p_rx_analytic", analytic),
        ):
            expected = np.cumsum(values, 0) / denom
            assert np.abs(running_mean(values) - expected).max() <= 1e-9
            assert np.abs(getattr(result.summary, name) - expected[-1]).max() <= 1e-9

    def test_empirical_tracks_analytic(self, result):
        summary = result.summary
        gap = np.abs(summary.p_rx_empirical - summary.p_rx_analytic).max()
        assert gap <= 4.0 / np.sqrt(result.record.horizon)

    def test_default_sizing_clean(self, result):
        config = result.config
        assert sizing_violations(config.params, config.capacity) == []


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
        unclipped = rec.battery[:-1] - rec.transmitted[:-1] + rec.harvested[:-1]
        assert (unclipped > config.capacity).any()  # the capacity clamp fires
        assert np.array_equal(rec.battery[1:], np.clip(unclipped, 0.0, config.capacity))

    def test_energy_balance_counts_transmissions(self, run_integer):
        _, rec = run_integer
        paid = (rec.harvested - rec.transmitted).mean(axis=0)
        fluid = (rec.harvested - rec.z).mean(axis=0)
        assert np.abs(paid - fluid).max() > 1e-3  # the two balances differ here
        assert summarize(rec).energy_balance == pytest.approx(paid, rel=1e-12, abs=1e-12)


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


def node_plants(nodes):
    """``nodes`` scalar plant entries, alternating the two shipped plants."""
    return [{"a_open": 1.1, "a_closed": 0.15} if i % 2 else {"a_open": 1.05, "a_closed": 0.1}
            for i in range(nodes)]


def interior_share(z: np.ndarray) -> float:
    """Share of z entries strictly inside (0, 1), where z moves with the
    interference and a z check is not decided by a clip."""
    return float(np.mean((z > 0.0) & (z < 1.0)))


class TestRecordTrace:
    """Row t + 1 of every state column is the recursion applied to row t,
    and z in slot t is the z step of row t and the mailbox rebuilt from the
    record. Random mode is left out: its availability draws are not
    recorded."""

    @pytest.mark.parametrize("overrides", [
        {},
        {"energy_accounting": "integer",
         "availability": {"mode": "piggyback", "prob": 1.0, "staleness_bound": 5},
         "harvest": {"mean": 0.25, "distribution": "uniform"},
         "battery": {"capacity": 20.0, "initial": 0.0}},
    ], ids=["always-on-fluid", "piggyback-integer"])
    def test_rows_follow_recursion(self, overrides):
        config = short_config(seed=4, horizon=600, **overrides)
        params = config.params
        capacity = config.capacity
        rec = run(config).record
        for t in range(rec.horizon - 1):
            grads = ehctrl.scheduler.dual_subgradients(
                rec.z[t], *ehctrl.scheduler.compute_s(rec.phi[t], rec.nu[t], params),
                ehctrl.scheduler.compute_y(rec.nu[t], params), rec.q[t], rec.harvested[t], params,
            )
            after = ehctrl.scheduler.apply_dual_step(
                rec.phi[t], rec.nu[t], rec.beta[t], grads, params)
            for name, stepped in zip(("phi", "nu", "beta"), after):
                assert np.array_equal(getattr(rec, name)[t + 1], stepped)
            spend = rec.spend[t].astype(float)
            assert np.array_equal(
                rec.battery[t + 1],
                ehctrl.energy.step_batteries(rec.battery[t], capacity, spend, rec.harvested[t]),
            )

    # M = 2 runs the scalar core, M = 8 the array core.
    @pytest.mark.parametrize("nodes", [2, 8])
    def test_always_on_reads_current_multipliers(self, nodes):
        """The synchronous limit: the always-on mailbox holds the other
        nodes' current multipliers in every slot."""
        config = short_config(seed=6, horizon=2000, plants=node_plants(nodes))
        rec = run(config).record
        assert interior_share(rec.z) > 0.05
        assert z_mismatches(rec, config.params, current_copies(rec.nu)) == []

    @pytest.mark.parametrize("accounting", ["fluid", "integer"])
    @pytest.mark.parametrize("bound", [1, 5])
    @pytest.mark.parametrize("nodes", [2, 8])
    def test_piggyback_reads_rebuilt_mailbox(self, nodes, bound, accounting):
        # Empty, slowly charged batteries: integer accounting then gates
        # transmissions, and with them the piggybacked refreshes.
        config = short_config(
            seed=5, horizon=1000, plants=node_plants(nodes), energy_accounting=accounting,
            availability={"mode": "piggyback", "staleness_bound": bound},
            harvest={"mean": 0.25, "distribution": "uniform"},
            battery={"capacity": 20.0, "initial": 0.0},
        )
        rec = run(config).record
        assert interior_share(rec.z) > 0.05
        assert z_mismatches(rec, config.params, piggyback_copies(rec, bound)) == []
        # A bound of 1 refreshes every pair every slot; a longer one leaves
        # copies stale, which the synchronous copies then fail to explain.
        stale = z_mismatches(rec, config.params, current_copies(rec.nu))
        assert (stale == []) == (bound == 1)


class TestStartState:
    """Record row 0: phi and nu start at zero and beta at the initial battery
    headroom scaled by the step size."""

    @staticmethod
    def first_row(**overrides):
        rec = run(short_config(horizon=1, **overrides)).record
        return rec.phi[0], rec.nu[0], rec.beta[0]

    def test_full_battery(self):
        for values in self.first_row():
            assert np.all(values == 0.0)

    def test_empty_battery(self):
        assert self.first_row(battery={"capacity": 20.0, "initial": 0.0})[2][0] == 20.0

    def test_step_size_scaling(self):
        _, _, beta = self.first_row(battery={"capacity": 20.0, "initial": 10.0},
                                    scheduler={"epsilon": 0.5})
        assert beta[0] == 5.0


class TestDegenerateRuns:
    def test_zero_horizon(self):
        result = run(short_config(horizon=0))
        assert result.record.horizon == 0
        for name in SUMMARY_FIELDS:
            assert getattr(result.summary, name).shape == (0,)
        assert result.summary.max_nu.shape == (0, 0)

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
        summary = summarize(record)
        assert summary.p_rx_analytic[0] == pytest.approx(1.0)
        assert summary.p_rx_empirical[0] == pytest.approx(1.0)


def assert_aborted_by(aborted, kind):
    """``aborted`` carries its breach as the record's, and the summary of
    its record counts that breach alone."""
    assert aborted.record.breach is aborted.cause
    assert aborted.cause.kind == kind
    assert {k: v for k, v in summarize(aborted.record).violations.items() if v} == {kind: 1}


# One breach of every kind, with the ``args`` it must hold:
# (slot, node, observed, expected, kind).
BREACHES = (
    (EnergyCausalityError(7, 1, 0.5, 0.25), (7, 1, 0.5, 0.25, "causality")),
    (InvalidStateError(3, 2), (3, 2, None, None, "nonfinite")),
    (InvariantViolation(4, 0, np.array([20.5, 3.0]), np.array([20.0, 20.0]), kind="dual_bound"),
     (4, 0, np.array([20.5, 3.0]), np.array([20.0, 20.0]), "dual_bound")),
    (InvariantViolation(5, 1, 0.25, 0.5, kind="mirror"), (5, 1, 0.25, 0.5, "mirror")),
)
BREACH_MESSAGES = (
    "energy causality violated at slot 7: node 1 spends 0.5 with charge 0.25",
    "plant 2 state went non-finite at slot 3",
    "invariant violated at slot 4: multiplier bound exceeded for node 0: "
    "nu = [20.5  3. ], cap = [20. 20.]",
    "invariant violated at slot 5: battery mirror diverged for node 1: "
    "beta = 0.25, expected 0.5",
)


def same_fields(args, fields):
    return len(args) == len(fields) and all(
        np.array_equal(a, f) if isinstance(f, np.ndarray) else a == f and type(a) is type(f)
        for a, f in zip(args, fields)
    )


class TestAborts:
    def test_causality_breach_aborts(self, monkeypatch):
        monkeypatch.setattr(ehctrl.sim, "SCALAR_MAX_NODES", 0)
        monkeypatch.setattr(
            ehctrl.scheduler, "compute_z", lambda nu, beta, stale, q, params: np.full(q.shape, 0.6)
        )
        config = short_config(seed=1, horizon=50, battery={"capacity": 20.0, "initial": 0.2})
        with pytest.raises(SimulationAborted) as err:
            run(config)
        assert isinstance(err.value.cause, EnergyCausalityError)
        assert_aborted_by(err.value, "causality")
        assert err.value.slot == 0
        assert err.value.record.horizon == 1  # partial telemetry kept

    def test_mirror_divergence_aborts(self, monkeypatch):
        monkeypatch.setattr(ehctrl.sim, "SCALAR_MAX_NODES", 0)
        true_step = ehctrl.energy.step_batteries

        def leaky_step(charge, capacity, spend, harvested):
            return true_step(charge, capacity, spend, np.minimum(harvested + 0.05, 1.0))

        monkeypatch.setattr(ehctrl.energy, "step_batteries", leaky_step)
        with pytest.raises(SimulationAborted) as err:
            run(short_config(seed=1, horizon=200, battery={"capacity": 20.0, "initial": 10.0}))
        assert isinstance(err.value.cause, InvariantViolation)
        assert "mirror" in str(err.value.cause)
        assert_aborted_by(err.value, "mirror")

    def test_dual_cap_breach_aborts(self, monkeypatch):
        monkeypatch.setattr(ehctrl.sim, "SCALAR_MAX_NODES", 0)
        true_step = ehctrl.scheduler.apply_dual_step

        def overshooting_step(phi, nu, beta, grads, params, available=None):
            phi, nu, beta = true_step(phi, nu, beta, grads, params, available)
            nu[1, 0] = params.nu_bar[1, 0] + params.epsilon + 1.0
            return phi, nu, beta

        monkeypatch.setattr(ehctrl.scheduler, "apply_dual_step", overshooting_step)
        with pytest.raises(SimulationAborted) as err:
            run(short_config(seed=1, horizon=50))
        assert isinstance(err.value.cause, InvariantViolation)
        assert_aborted_by(err.value, "dual_bound")
        assert "node 1" in str(err.value.cause)
        assert err.value.slot == 0
        assert summarize(err.value.record).violations == {
            "causality": 0, "mirror": 0, "dual_bound": 1, "nonfinite": 0,
        }

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
        assert_aborted_by(err.value, "nonfinite")

    def test_aborts_survive_pickling(self):
        for cause, fields in BREACHES:
            record = TelemetryRecord(horizon=0, count=1, required_p=np.zeros(1),
                                     collision_prob=0.0, breach=cause)
            aborted = pickle.loads(pickle.dumps(SimulationAborted(record)))
            assert type(aborted.cause) is type(cause)
            assert str(aborted) == f"run aborted at slot {cause.slot}: {cause}"
            assert same_fields(aborted.cause.args, fields)
            assert aborted.record.breach is aborted.cause
            assert aborted.slot == cause.slot and aborted.record.count == 1

    @pytest.mark.parametrize("case", range(len(BREACHES)),
                             ids=[fields[-1] for _, fields in BREACHES])
    def test_breach_args_are_its_fields(self, case):
        breach, fields = BREACHES[case]
        assert same_fields(breach.args, fields)
        assert same_fields(
            (breach.slot, breach.node, breach.observed, breach.expected, breach.kind), fields
        )
        assert str(breach) == BREACH_MESSAGES[case]
        restored = pickle.loads(pickle.dumps(breach))
        assert type(restored) is type(breach)
        assert same_fields(restored.args, fields)
        assert str(restored) == str(breach)


CORE_SLOTS = 40
# One node count past the threshold, but never 8 nodes: numpy sums rows of 8
# or more pairwise, so an 8-node array core is not the scalar core's reference.
CORE_CASES = list(itertools.product(
    range(1, min(SCALAR_MAX_NODES + 1, 7) + 1),
    ("always-on", "random", "piggyback"),
    ("fluid", "integer"),
    ("mailbox", "direct"),
    ("sized", "faults", "nan"),
))


def core_id(case) -> str:
    """A case's id, which also seeds its draws."""
    return "-".join(map(str, case))


def core_inputs(nodes, mode, accounting, start_copies, state, seed):
    """Config, record, mailbox, start slot and draws of one chunk; random
    mode's draws are up flags. The mailbox starts with stale copies drawn
    apart from the multipliers (``mailbox``) or with the other nodes'
    current multipliers stamped in the start slot (``direct``), the state
    the always-on mailbox keeps. Row ``start`` of the record holds the start state: ``sized``
    keeps the mirror and the caps, ``faults`` adds the states the
    fault-injection tests create (z above the charge, nu above its cap,
    beta off the mirror) and the nu = 0, phi = 0 and p = 0 corners, ``nan``
    puts NaN into one multiplier of each kind on top. Under ``faults`` node
    0 sends with z = 1 from a charge of 0.3 in the first slot whatever the
    draws: its nu_00 outweighs the interference."""
    rng = np.random.default_rng(seed)
    eps = float(rng.uniform(0.2, 2.0))
    nu_bar = rng.uniform(1.0, 20.0, (nodes, nodes))
    p = rng.uniform(0.05, 0.6, nodes)
    if state != "sized":
        p[-1] = 0.0  # log_p = -inf
    params = SchedulerParams(
        epsilon=eps, nu_bar=nu_bar, y_bar=(nu_bar + 2.0 * eps) / eps + 1.0, p=p,
        collision_prob=float(rng.uniform(0.0, 0.5)), s_floor=float(rng.choice([1e-6, 1e-2])),
    )
    capacity = rng.uniform(2.0, 30.0, nodes)
    start = int(rng.choice([0, 3, 300]))
    plant = PlantModel(a_open=1.1, a_closed=0.1, noise_cov=1.0, lyapunov_weight=1.0,
                       decrease_rate=0.8)
    config = SimConfig(
        plants=(plant,) * nodes,
        channel=ChannelConfig(),
        harvests=(HarvestConfig(0.5),) * nodes,
        capacity=capacity,
        charge=capacity,
        params=params,
        availability=AvailabilitySchedule(mode, 0.5, int(rng.integers(1, 12))),
        horizon=start + CORE_SLOTS,
        seed=seed,
        energy_accounting=accounting,
    )
    record = TelemetryRecord(horizon=config.horizon, count=nodes, required_p=p,
                             collision_prob=params.collision_prob,
                             energy_accounting=accounting)
    _allocate(record, config)
    # A wide spread of magnitudes makes the order of every sum show.
    nu = rng.uniform(0.0, 1.0, (nodes, nodes)) * nu_bar * 10.0 ** rng.uniform(-3, 0, (nodes, nodes))
    nu[rng.random((nodes, nodes)) < 0.2] = 0.0
    phi = rng.uniform(0.0, 5.0, nodes)
    charge = rng.uniform(0.0, capacity)
    beta = eps * (capacity - charge)
    if state != "sized":
        nu[-1] = 0.0
        nu[0, 0] = nu_bar[0, 0] + eps + 5.0  # above the cap, y fires, z = 1
        phi[0] = 0.0
        charge[0] = 0.3
        beta = rng.uniform(0.0, 3.0, nodes)
        beta[0] = 0.0
    if state == "nan":
        nu[-1, 0] = phi[-1] = beta[-1] = np.nan
    record.battery[start], record.phi[start], record.beta[start], record.nu[start] = (
        charge, phi, beta, nu)
    mailbox = DualMailbox(nodes)
    mailbox.values[:] = rng.uniform(0.0, 20.0, (nodes, nodes)) * 10.0 ** rng.uniform(
        -3, 0, (nodes, nodes))
    mailbox.slots[:] = rng.integers(max(start - 14, 0), start + 1, (nodes, nodes))
    if start_copies == "direct":
        mailbox.values[:] = record.nu[start].T
        mailbox.slots[:] = start
    np.fill_diagonal(mailbox.values, 0.0)
    np.fill_diagonal(mailbox.slots, 0)
    shape = (CORE_SLOTS, nodes)
    q = rng.uniform(0.2, 1.0, shape)
    e = np.where(rng.random(shape) < 0.3, 1.0, rng.uniform(0.0, 1.0, shape))
    transmit = rng.random(shape)
    availability = rng.random(shape) < 0.5 if mode == "random" else [None] * CORE_SLOTS
    if state != "sized":
        interference = np.nansum(mailbox.values[0])
        record.nu[start, 0, 0] += (2.0 + params.collision_prob * interference) / q[0, 0]
    return config, record, mailbox, start, q, e, transmit, availability


def canonical_nan(values: np.ndarray) -> np.ndarray:
    """``values`` with every NaN as ``np.nan``: numpy's SIMD clips may flip a
    NaN's sign bit, which no output shows (a NaN is written as ``nan``)."""
    if values.dtype.kind != "f":
        return values
    return np.where(np.isnan(values), np.nan, values)


class TestScalarCore:
    """The two forms of the per-slot core write the same bytes from the same
    draws and start state (see the ``ehctrl.sim`` docstring)."""

    @pytest.mark.parametrize("case", CORE_CASES, ids=core_id)
    def test_scalar_chunk_matches_array_chunk(self, case):
        # Seeded by the case itself, so a case keeps its draws whatever
        # the threshold makes of the case list.
        seed = zlib.crc32(core_id(case).encode())
        config, record, mailbox, start, *draws = core_inputs(*case, seed)
        written = {}
        for core in (_array_chunk, _scalar_chunk):
            rec, box = copy.deepcopy(record), copy.deepcopy(mailbox)
            with np.errstate(invalid="ignore"):
                core(config, rec, box, start, *draws)
            columns = [getattr(rec, name) for name in (
                "z", "transmitted", "battery", "phi", "beta", "nu")]
            written[core] = [canonical_nan(a).tobytes()
                             for a in (*columns, box.values, box.slots)]
            rows = slice(start, start + CORE_SLOTS)
            if case[-1] == "faults":  # the corners were reached
                assert (rec.z[rows] > rec.battery[rows]).any()
                assert rec.z[start, 0] == 1.0
        assert written[_scalar_chunk] == written[_array_chunk]

    def test_chosen_by_node_count(self, monkeypatch):
        chosen = []
        for name in ("_array_chunk", "_scalar_chunk"):
            def spy(*args, core=getattr(ehctrl.sim, name), name=name):
                chosen.append(name)
                core(*args)

            monkeypatch.setattr(ehctrl.sim, name, spy)
        for nodes in (SCALAR_MAX_NODES, SCALAR_MAX_NODES + 1):
            run(short_config(horizon=10, plants=[{"a_open": 1.05, "a_closed": 0.1}] * nodes))
        assert chosen == ["_scalar_chunk", "_array_chunk"]
        assert SCALAR_MAX_NODES < 8  # numpy sums rows of 8 or more pairwise


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_collector_settings(enabled):
    """A library call leaves the process's cyclic-collector settings as it
    found them."""
    before = gc.isenabled(), gc.get_threshold()
    try:
        (gc.enable if enabled else gc.disable)()
        gc.set_threshold(500, 7, 9)
        run(short_config(horizon=300))
        assert (gc.isenabled(), gc.get_threshold()) == (enabled, (500, 7, 9))
    finally:
        (gc.enable if before[0] else gc.disable)()
        gc.set_threshold(*before[1])


class TestConfigSurface:
    def test_default_config_matches_shipped_parameters(self):
        config = build_config(read_raw(None))
        assert config.horizon == 10_000
        assert config.count == 2
        assert config.params.p[0] == pytest.approx(0.3453, abs=5e-4)
        assert config.params.p[1] == pytest.approx(0.2769, abs=5e-4)
        assert config.params.collision_prob == 0.25
        assert config.capacity.tolist() == config.charge.tolist() == [20.0, 20.0]
        assert config.params.epsilon == 1.0
        assert float(config.params.nu_bar[0, 0]) == 19.0
        assert float(config.params.y_bar[0, 0]) == 25.0

    def test_config_is_frozen(self):
        config = build_config(read_raw(None))
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.horizon = 5
