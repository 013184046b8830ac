"""Slot-loop orchestration of the coupled plant/channel/battery/dual system.

The state of all nodes is held as arrays: multipliers phi (M,), nu (M, M)
and beta (M,), battery charges (M,), the mailbox (M, M) and the plant
states. Every step except collision resolution is one array expression over
all nodes. Every slot runs, in this fixed order:

  1. draw channel states and harvest arrivals
  2. every node computes its auxiliary, reception and transmit variables
     from its own multipliers and the stale remote copies
  3. Bernoulli transmission draws
  4. collision/decoding resolution -> per-node reception flags
  5. plants step (closed loop on reception, open loop otherwise)
  6. batteries step with the transmit probability as the energy spend
  7. dual subgradient updates, masked by availability
  8. multiplier exchange into the mailboxes
  9. telemetry append (rows carry start-of-slot state)

Reordering steps 2 and 7 changes results and is forbidden. Randomness comes
from named per-node streams (channel, harvest, transmission, collision,
availability, noise) expanded from the root seed, so disabling one source
never shifts another. Every stream but the collision one is drawn
``DRAW_CHUNK`` slots at a time, which reproduces the slot-by-slot draw
sequence exactly; a transmitter draws a slot's collision and decode
uniforms in one call. Two runs with equal config and seed produce identical
outputs.

Runtime-checked invariants, any breach aborting the run with a slot-stamped
diagnostic: per-slot energy causality, finite plant state, the multiplier
cap nu <= nu_bar + epsilon, and the mirror identity
beta = epsilon * (capacity - charge) under fluid energy accounting.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from . import comm, coordination, energy, scheduler
from .comm import ChannelConfig
from .control import PlantBank, PlantModel
from .coordination import AvailabilitySchedule, DualMailbox
from .energy import BatteryState, HarvestConfig
from .errors import (
    ConfigError,
    EnergyCausalityError,
    InvalidStateError,
    InvariantViolation,
)
from .scheduler import SchedulerParams

logger = logging.getLogger(__name__)

MIRROR_ATOL = 1e-9
DUAL_BOUND_ATOL = 1e-9

ENERGY_ACCOUNTING_MODES = ("fluid", "integer")
DUAL_ACCESS_MODES = ("mailbox", "direct")

# Slots of each random stream drawn per call; bounds the draw buffers to
# O(DRAW_CHUNK * M) whatever the horizon.
DRAW_CHUNK = 256

_STREAM_NAMES = ("channel", "harvest", "transmission", "collision", "availability", "noise")


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Complete, validated description of one simulation run."""

    plants: tuple[PlantModel, ...]
    channel: ChannelConfig
    harvests: tuple[HarvestConfig, ...]
    batteries: tuple[BatteryState, ...]
    params: SchedulerParams
    availability: AvailabilitySchedule
    horizon: int
    seed: int
    energy_accounting: str = "fluid"
    dual_access: str = "mailbox"
    initial_states: tuple[np.ndarray, ...] | None = None
    schedule_window: tuple[int, int] = (1050, 1100)

    def __post_init__(self):
        count = len(self.plants)
        if count < 1:
            raise ConfigError("need at least one plant")
        for name, seq in (("harvests", self.harvests), ("batteries", self.batteries)):
            if len(seq) != count:
                raise ConfigError(f"{name} must list one entry per plant")
        if self.params.count != count:
            raise ConfigError("scheduler params sized for a different node count")
        if self.horizon < 0:
            raise ConfigError("horizon must be non-negative")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")
        if self.energy_accounting not in ENERGY_ACCOUNTING_MODES:
            raise ConfigError(f"energy_accounting must be one of {ENERGY_ACCOUNTING_MODES}")
        if self.dual_access not in DUAL_ACCESS_MODES:
            raise ConfigError(f"dual_access must be one of {DUAL_ACCESS_MODES}")
        if self.initial_states is not None:
            states = tuple(
                np.atleast_1d(np.asarray(x, dtype=float)) for x in self.initial_states
            )
            if len(states) != count:
                raise ConfigError("initial_states must list one vector per plant")
            for x, plant in zip(states, self.plants):
                if x.shape != (plant.dim,):
                    raise ConfigError("initial state dimension does not match plant")
            object.__setattr__(self, "initial_states", states)

    @property
    def count(self) -> int:
        return len(self.plants)


def sizing_report(config: SimConfig) -> list[str]:
    """Sizing-rule violations for this configuration (empty when the dual
    bound and energy-causality preconditions hold)."""
    capacities = [b.capacity for b in config.batteries]
    return scheduler.sizing_violations(config.params, capacities)


@dataclass(eq=False)
class TelemetryRecord:
    """Raw per-slot columns plus running averages derived from them."""

    horizon: int
    count: int
    required_p: np.ndarray
    states: list[np.ndarray] = field(default_factory=list)  # per plant, (T, n_i)
    lyapunov: np.ndarray = None
    z: np.ndarray = None
    transmitted: np.ndarray = None
    received: np.ndarray = None
    collided: np.ndarray = None
    h: np.ndarray = None
    q: np.ndarray = None
    battery: np.ndarray = None
    harvested: np.ndarray = None
    phi: np.ndarray = None
    beta: np.ndarray = None
    nu: np.ndarray = None
    nu_stale: np.ndarray = None
    ctrl_perf: np.ndarray = None
    p_tx: np.ndarray = None
    p_rx_analytic: np.ndarray = None
    p_rx_empirical: np.ndarray = None
    energy_balance: np.ndarray = None
    nu_mean: np.ndarray = None
    violations: dict = field(default_factory=dict)


@dataclass(eq=False)
class NodeSummary:
    node: int
    p_required: float
    p_tx: float
    p_rx_analytic: float
    p_rx_empirical: float
    ctrl_perf: float
    energy_balance: float
    battery_final: float
    max_nu: np.ndarray


@dataclass(eq=False)
class Summary:
    horizon: int
    nodes: list[NodeSummary]
    violations: dict


@dataclass(eq=False)
class SimResult:
    config: SimConfig
    record: TelemetryRecord
    summary: Summary


class SimulationAborted(RuntimeError):
    """A runtime invariant broke mid-run; partial telemetry is attached."""

    def __init__(self, cause: Exception, record: TelemetryRecord, slot: int):
        self.cause = cause
        self.record = record
        self.slot = slot
        super().__init__(f"run aborted at slot {slot}: {cause}")


def make_streams(seed: int, count: int) -> dict[str, list[np.random.Generator]]:
    """Expand the root seed into the named per-node streams."""
    return {
        name: [
            np.random.default_rng(np.random.SeedSequence(entropy=(seed, idx, node)))
            for node in range(count)
        ]
        for idx, name in enumerate(_STREAM_NAMES)
    }


def _allocate(record: TelemetryRecord, config: SimConfig) -> None:
    T, M = config.horizon, config.count
    for name in ("lyapunov", "z", "h", "q", "battery", "harvested", "phi", "beta"):
        setattr(record, name, np.zeros((T, M)))
    for name in ("transmitted", "received", "collided"):
        setattr(record, name, np.zeros((T, M), dtype=bool))
    record.nu = np.zeros((T, M, M))
    record.nu_stale = np.zeros((T, M, M))


def _finalize(record: TelemetryRecord, upto: int, collision_prob: float) -> None:
    """Trim to the completed slots and derive the running averages."""
    T = upto
    record.horizon = T
    record.states = [s[:T] for s in record.states]
    for name in (
        "lyapunov", "z", "h", "q", "battery", "harvested", "phi", "beta",
        "transmitted", "received", "collided",
    ):
        setattr(record, name, getattr(record, name)[:T])
    record.nu = record.nu[:T]
    record.nu_stale = record.nu_stale[:T]

    denom = np.arange(1, T + 1, dtype=float)[:, None]
    record.ctrl_perf = np.cumsum(record.lyapunov, axis=0) / denom
    record.p_tx = np.cumsum(record.z, axis=0) / denom
    record.p_rx_empirical = np.cumsum(record.received, axis=0) / denom
    record.energy_balance = np.cumsum(record.harvested - record.z, axis=0) / denom
    analytic = per_slot_reception(record.z, record.q, collision_prob)
    record.p_rx_analytic = np.cumsum(analytic, axis=0) / denom
    record.nu_mean = np.cumsum(record.nu, axis=0) / denom[:, :, None]


def per_slot_reception(z: np.ndarray, q: np.ndarray, collision_prob: float) -> np.ndarray:
    """Analytic per-slot reception probabilities q_i z_i prod(1 - q_c z_j)."""
    damp = 1.0 - collision_prob * z
    total = np.prod(damp, axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        others = np.where(damp > 0.0, total / damp, 0.0)
    # Recompute exactly where a factor hit zero (q_c * z = 1 for some node).
    bad = np.nonzero(damp <= 0.0)
    for t, i in zip(*bad):
        others[t, i] = np.prod(np.delete(damp[t], i))
    return q * z * others


def _per_slot(draw, horizon: int):
    """Yield ``horizon`` slots of draws, calling ``draw(n)`` for the next n
    slots (first axis) at most ``DRAW_CHUNK`` at a time."""
    for start in range(0, horizon, DRAW_CHUNK):
        yield from draw(min(DRAW_CHUNK, horizon - start))


def _uniforms(rngs):
    """Draw function for one uniform per node stream and slot."""
    return lambda n: np.stack([rng.random(n) for rng in rngs], axis=1)


def run(config: SimConfig) -> SimResult:
    """Run the full slot loop; returns telemetry and summary, raising
    :class:`SimulationAborted` (partial telemetry attached) on any invariant
    breach."""
    M = config.count
    T = config.horizon
    params = config.params
    streams = make_streams(config.seed, M)
    fluid = config.energy_accounting == "fluid"
    direct = config.dual_access == "direct"
    logger.debug(
        "run: %d nodes, %d slots, seed %d, %s/%s",
        M, T, config.seed, config.availability.mode, config.dual_access,
    )

    plants = PlantBank(
        config.plants, config.initial_states or [np.zeros(p.dim) for p in config.plants]
    )
    capacity = np.array([b.capacity for b in config.batteries])
    charge = np.array([b.charge for b in config.batteries])
    duals = scheduler.init_duals(charge, capacity, params)
    mailbox = DualMailbox(M)
    cap = params.nu_bar + params.epsilon + DUAL_BOUND_ATOL

    record = TelemetryRecord(horizon=T, count=M, required_p=params.p.copy())
    record.violations = {
        "causality": 0, "mirror": 0, "dual_bound": 0, "nonfinite": 0,
    }
    _allocate(record, config)
    record.states = plants.history(T)

    channel = _per_slot(
        lambda n: zip(*comm.draw_channels(config.channel, M, streams["channel"], n)), T
    )
    harvest = _per_slot(
        lambda n: np.stack(
            [energy.draw_harvest(h, rng, n) for h, rng in zip(config.harvests, streams["harvest"])],
            axis=1,
        ),
        T,
    )
    transmit = _per_slot(_uniforms(streams["transmission"]), T)
    availability = (
        _per_slot(_uniforms(streams["availability"]), T)
        if config.availability.mode == "random"
        else itertools.repeat(None)
    )
    normals = _per_slot(lambda n: plants.draw_normals(streams["noise"], n), T)

    t = 0
    rows = 0
    try:
        for t in range(T):
            # 1. environment draws
            h, q = next(channel)
            e = next(harvest)

            # 2. primal computation from current duals and stale copies
            if direct:
                stale = duals.nu.T.copy()
                np.fill_diagonal(stale, 0.0)
            else:
                stale = mailbox.values
            z = scheduler.compute_z(duals, stale, q, params)
            s_own, s_cross = scheduler.compute_s(duals, params)
            y = scheduler.compute_y(duals, params)

            # 3. transmission draws (integer accounting gates on whole units)
            tx = next(transmit) < z
            if not fluid:
                tx &= charge >= 1.0

            # 4. collision/decoding resolution
            outcome = comm.resolve_slot(config.channel, tx, q, streams["collision"])

            # telemetry snapshot of start-of-slot state
            plants.save(t)
            record.lyapunov[t] = plants.lyapunov()
            record.battery[t] = charge
            record.phi[t] = duals.phi
            record.beta[t] = duals.beta
            record.nu[t] = duals.nu
            record.nu_stale[t] = stale
            record.z[t] = z
            record.transmitted[t] = tx
            record.received[t] = outcome.received
            record.collided[t] = outcome.collided
            record.h[t] = h
            record.q[t] = q
            record.harvested[t] = e
            rows = t + 1

            # 5. plant steps
            plants.step(outcome.received, next(normals), t)

            # 6. battery steps (fluid: the transmit probability is the spend)
            spend = z if fluid else tx.astype(float)
            new_charge = energy.step_batteries(charge, capacity, spend, e, slot=t)

            # 7. masked dual updates
            decision = coordination.advance_availability(
                config.availability, t, next(availability), tx, mailbox
            )
            grads = scheduler.dual_subgradients(z, s_own, s_cross, y, q, e, params)
            new_duals = scheduler.apply_dual_step(duals, grads, params, decision.available)

            # 8. exchange into mailboxes (post-update values, stamped this slot)
            coordination.exchange_duals(mailbox, decision, new_duals.nu, t)

            _check_invariants(new_duals, new_charge, capacity, cap, params, fluid, t)
            charge, duals = new_charge, new_duals
    except (EnergyCausalityError, InvariantViolation, InvalidStateError) as exc:
        _finalize(record, rows, config.channel.collision_prob)
        if isinstance(exc, InvariantViolation):
            key = exc.kind
        else:
            key = "causality" if isinstance(exc, EnergyCausalityError) else "nonfinite"
        record.violations[key] += 1
        raise SimulationAborted(exc, record, t) from exc

    _finalize(record, T, config.channel.collision_prob)
    return SimResult(config=config, record=record, summary=summarize(record))


def _check_invariants(duals, charge, capacity, cap, params, fluid: bool, t: int) -> None:
    """Multiplier cap and (fluid accounting) battery mirror on the advanced
    state; the first offending node is reported, cap before mirror."""
    over = (duals.nu > cap).any(axis=1)
    bad = over
    if fluid:
        mirror = params.epsilon * (capacity - charge)
        bad = over | (np.abs(duals.beta - mirror) > MIRROR_ATOL)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if over[i]:
        raise InvariantViolation(
            f"multiplier bound exceeded for node {i}: nu = {duals.nu[i]}, cap = {cap[i]}",
            kind="dual_bound",
            slot=t,
        )
    raise InvariantViolation(
        f"battery mirror diverged for node {i}: "
        f"beta = {float(duals.beta[i])!r}, expected {float(mirror[i])!r}",
        kind="mirror",
        slot=t,
    )


def summarize(record: TelemetryRecord) -> Summary:
    """Final summary table; empty for a zero-length run."""
    if record.horizon == 0:
        return Summary(horizon=0, nodes=[], violations=dict(record.violations))
    nodes = []
    for i in range(record.count):
        nodes.append(
            NodeSummary(
                node=i,
                p_required=float(record.required_p[i]),
                p_tx=float(record.p_tx[-1, i]),
                p_rx_analytic=float(record.p_rx_analytic[-1, i]),
                p_rx_empirical=float(record.p_rx_empirical[-1, i]),
                ctrl_perf=float(record.ctrl_perf[-1, i]),
                energy_balance=float(record.energy_balance[-1, i]),
                battery_final=float(record.battery[-1, i]),
                max_nu=record.nu[:, i, :].max(axis=0),
            )
        )
    return Summary(horizon=record.horizon, nodes=nodes, violations=dict(record.violations))
