"""Slot-loop orchestration of the coupled plant/channel/battery/dual system.

The state of all nodes is held as arrays: multipliers phi (M,), nu (M, M)
and beta (M,), battery charges (M,), the mailbox (M, M) and one plant state
stack per state dimension. Every function the loop calls takes the loop's
arrays and returns arrays. Every slot runs, in this fixed order:

  1. draw channel states and harvest arrivals
  2. every node computes its auxiliary, reception and transmit variables
     from its own multipliers and the stale remote copies
  3. Bernoulli transmission draws
  4. collision/decoding resolution -> per-node reception flags
  5. plants step (closed loop on reception, open loop otherwise), one
     stacked matmul per plant dimension
  6. batteries step with the energy spend (the transmit probability under
     fluid accounting, the transmission under integer accounting)
  7. dual subgradient updates, masked by availability
  8. multiplier exchange into the mailboxes
  9. telemetry rows (rows carry start-of-slot state)

Reordering steps 2 and 7 changes results and is forbidden. Randomness comes
from named per-node streams (channel, harvest, transmission, collision,
availability, noise) expanded from the root seed, so disabling one source
never shifts another.

Only the dual/mailbox/battery recursion feeds back: a transmit
probability depends on the node's channel, multipliers and (through beta)
battery, never on a plant state or on which packets were decoded. So the
slot loop runs the feedback core only, and the rest runs once per
``DRAW_CHUNK`` slots:

  * before the chunk, the channel, harvest, transmission, availability and
    noise streams are drawn for all of it (the same values as slot by
    slot), harvests are checked to be non-negative, and the h, q and e
    columns are recorded;
  * per slot, the core runs steps 2, 3, 6, 7 and 8 and writes the z,
    transmitted, battery, phi, beta and nu rows. Batteries and transmission
    draws stay in it because integer accounting gates transmission on
    charge, and piggyback exchanges ride on transmissions;
  * after the chunk, its recorded rows are replayed: collisions (step 4,
    :func:`~ehctrl.comm.resolve_chunk`), plant steps (step 5,
    :meth:`~ehctrl.control.PlantBank.replay`, writing the state rows) and
    the invariant checks.

The certificate V = x'Wx is computed from the saved states after the loop
(of the completed rows on an abort). The record keeps these raw per-slot
columns only; :func:`running_mean` derives the running averages for
:func:`summarize` and the telemetry writers. Two runs with equal config and
seed produce identical outputs.

Runtime-checked invariants: finite plant state, per-slot energy causality,
the multiplier cap nu <= nu_bar + epsilon, and the mirror identity
beta = epsilon * (capacity - charge) under fluid energy accounting. The
state after slot t is record row t + 1, or the carried state after a
chunk's last slot. The earliest breach aborts the run: the earliest slot,
then the order of the steps that break them (non-finite state, causality,
then the first node breaking the cap or the mirror, the cap first), and
the record is cut after that slot as if the run had stopped there. A
diverging plant is stepped to the end of its chunk first, so numpy may
warn about values past the breach. Each breach is an
:class:`~ehctrl.errors.InvariantBreach` whose ``kind`` keys the
``violations`` counters.
"""

from __future__ import annotations

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
    InvariantBreach,
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


@dataclass(eq=False)
class TelemetryRecord:
    """Raw per-slot columns of one run. Running averages are derived from
    them with :func:`running_mean` by :func:`summarize` and the writers."""

    horizon: int
    count: int
    required_p: np.ndarray
    collision_prob: float
    energy_accounting: str = "fluid"
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
    violations: dict = field(default_factory=dict)

    @property
    def spend(self) -> np.ndarray:
        """Energy each battery paid per slot: the transmit probability under
        fluid accounting, whole transmissions under integer accounting."""
        return self.z if self.energy_accounting == "fluid" else self.transmitted


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
    for name in ("z", "h", "q", "battery", "harvested", "phi", "beta"):
        setattr(record, name, np.zeros((T, M)))
    for name in ("transmitted", "received", "collided"):
        setattr(record, name, np.zeros((T, M), dtype=bool))
    record.nu = np.zeros((T, M, M))


def _finalize(record: TelemetryRecord, upto: int) -> None:
    """Trim every column to the completed slots."""
    record.horizon = upto
    record.states = [s[:upto] for s in record.states]
    for name in (
        "lyapunov", "z", "h", "q", "battery", "harvested", "phi", "beta",
        "transmitted", "received", "collided", "nu",
    ):
        setattr(record, name, getattr(record, name)[:upto])


def running_mean(values: np.ndarray) -> np.ndarray:
    """Running average over slots (the first axis): row t is the mean of
    rows 0..t."""
    slots = np.arange(1, len(values) + 1, dtype=float)
    return np.cumsum(values, axis=0) / slots.reshape(-1, *(1,) * (values.ndim - 1))


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


def _uniforms(rngs, size: int) -> np.ndarray:
    """(size, nodes) block of uniforms, one column per node stream."""
    return np.stack([rng.random(size) for rng in rngs], axis=1)


def _draw_chunk(
    config: SimConfig, streams, plants: PlantBank, record: TelemetryRecord, start: int, stop: int
):
    """Draw every stream that does not depend on the feedback for the slots
    ``start`` to ``stop``. Records the h, q and e columns and returns the
    per-slot rows of q, e, the transmission uniforms, the availability
    uniforms (None outside random mode) and the process noise stacks."""
    size = stop - start
    h, q = comm.draw_channels(config.channel, streams["channel"], size)
    e = np.stack(
        [energy.draw_harvest(cfg, rng, size)
         for cfg, rng in zip(config.harvests, streams["harvest"])],
        axis=1,
    )
    if np.count_nonzero(e < 0):
        raise ConfigError("harvested energy cannot be negative")
    record.h[start:stop] = h
    record.q[start:stop] = q
    record.harvested[start:stop] = e
    availability = (
        _uniforms(streams["availability"], size)
        if config.availability.mode == "random"
        else [None] * size
    )
    transmit = _uniforms(streams["transmission"], size)
    return q, e, transmit, availability, plants.draw_noise(streams["noise"], size)


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
    # Always-on and piggyback nodes are capable every slot, so the
    # availability mask of the dual step is the identity there.
    masked = config.availability.mode == "random"
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

    record = TelemetryRecord(
        horizon=T, count=M, required_p=params.p.copy(),
        collision_prob=config.channel.collision_prob,
        energy_accounting=config.energy_accounting,
    )
    record.violations = {
        "causality": 0, "mirror": 0, "dual_bound": 0, "nonfinite": 0,
    }
    _allocate(record, config)
    record.states = plants.history(T)

    try:
        for start in range(0, T, DRAW_CHUNK):
            stop = min(start + DRAW_CHUNK, T)
            # 1. environment draws, with every other feedback-free stream
            q_chunk, e_chunk, transmit, availability, noise = _draw_chunk(
                config, streams, plants, record, start, stop
            )
            for t in range(start, stop):
                k = t - start
                q = q_chunk[k]

                # 2. primal computation from current duals and stale copies
                if direct:
                    stale = duals.nu.T.copy()
                    stale.flat[:: M + 1] = 0.0
                else:
                    stale = mailbox.values
                z = scheduler.compute_z(duals, stale, q, params)
                s_own, s_cross = scheduler.compute_s(duals, params)
                y = scheduler.compute_y(duals, params)

                # 3. transmission draws into the record row (integer
                # accounting gates on whole units)
                tx = np.less(transmit[k], z, out=record.transmitted[t])
                if not fluid:
                    tx &= charge >= 1.0

                # 9. start-of-slot state (h, q and e are recorded per chunk)
                record.battery[t] = charge
                record.phi[t] = duals.phi
                record.beta[t] = duals.beta
                record.nu[t] = duals.nu
                record.z[t] = z

                # 6. battery steps (fluid: the transmit probability is the spend)
                spend = z if fluid else tx.astype(float)
                charge = energy.step_batteries(charge, capacity, spend, e_chunk[k])

                # 7. masked dual updates
                decision = coordination.advance_availability(
                    config.availability, t, availability[k], tx, mailbox
                )
                grads = scheduler.dual_subgradients(
                    z, s_own, s_cross, y, q, e_chunk[k], params
                )
                duals = scheduler.apply_dual_step(
                    duals, grads, params, decision.available if masked else None
                )

                # 8. exchange into mailboxes (post-update values, stamped this slot)
                coordination.exchange_duals(mailbox, decision, duals.nu, t)

            # 4. and 5. replayed over the chunk's rows, then the checks
            received, collided = comm.resolve_chunk(
                config.channel, record.transmitted[start:stop], q_chunk, streams["collision"]
            )
            record.received[start:stop] = received
            record.collided[start:stop] = collided
            plants.replay(received, noise, start)
            _check_chunk(record, plants, start, stop, duals, charge, capacity, cap, params)
    except InvariantBreach as exc:
        rows = exc.slot + 1
        record.lyapunov = plants.certificates(rows)
        _finalize(record, rows)
        record.violations[exc.kind] += 1
        raise SimulationAborted(exc, record, exc.slot) from exc

    record.lyapunov = plants.certificates(T)
    _finalize(record, T)
    return SimResult(config=config, record=record, summary=summarize(record))


def _check_chunk(
    record: TelemetryRecord, plants: PlantBank, start: int, stop: int,
    duals, charge, capacity, cap, params,
) -> None:
    """Raise the earliest invariant breach of the slots ``start`` to
    ``stop``: the earliest slot, then the step order (see the module
    docstring). ``duals`` and ``charge`` are the state after the last slot;
    the state after any other slot is the next record row."""
    fluid = record.energy_accounting == "fluid"
    rows, after = slice(start, stop), slice(start + 1, stop)
    nonfinite = plants.nonfinite(start, stop)
    overspent = record.spend[rows] > record.battery[rows] + energy.CAUSALITY_ATOL
    over, dual = (np.concatenate(parts) for parts in zip(
        _dual_breaches(record.nu[after], record.beta[after], record.battery[after],
                       capacity, cap, params, fluid),
        _dual_breaches(duals.nu[None], duals.beta[None], charge[None],
                       capacity, cap, params, fluid),
    ))
    breached = (nonfinite | overspent | dual).any(axis=1)
    if not breached.any():
        return
    k = int(breached.argmax())
    t = start + k
    if nonfinite[k].any():
        raise InvalidStateError(plant=int(nonfinite[k].argmax()), slot=t)
    if overspent[k].any():
        node = int(overspent[k].argmax())
        raise EnergyCausalityError(
            node=node, spend=float(record.spend[t, node]),
            charge=float(record.battery[t, node]), slot=t,
        )
    nu, beta = duals.nu, duals.beta
    if t + 1 < stop:
        nu, beta, charge = record.nu[t + 1], record.beta[t + 1], record.battery[t + 1]
    i = int(dual[k].argmax())
    if over[k, i]:
        raise InvariantViolation(
            f"multiplier bound exceeded for node {i}: nu = {nu[i]}, cap = {cap[i]}",
            kind="dual_bound",
            slot=t,
        )
    mirror = params.epsilon * (capacity[i] - charge[i])
    raise InvariantViolation(
        f"battery mirror diverged for node {i}: "
        f"beta = {float(beta[i])!r}, expected {float(mirror)!r}",
        kind="mirror",
        slot=t,
    )


def _dual_breaches(nu, beta, charge, capacity, cap, params, fluid: bool):
    """Per slot row and node of the advanced state: whether the node's nu
    row breaks the cap, and whether it breaks the cap or (fluid accounting)
    the mirror beta = epsilon * (capacity - charge)."""
    over = (nu > cap).any(axis=-1)
    if not fluid:
        return over, over
    return over, over | (np.abs(beta - params.epsilon * (capacity - charge)) > MIRROR_ATOL)


def summarize(record: TelemetryRecord) -> Summary:
    """Final summary table; empty for a zero-length run."""
    if record.horizon == 0:
        return Summary(horizon=0, nodes=[], violations=dict(record.violations))
    analytic = per_slot_reception(record.z, record.q, record.collision_prob)
    finals = {
        name: running_mean(values)[-1]
        for name, values in (
            ("p_tx", record.z),
            ("p_rx_analytic", analytic),
            ("p_rx_empirical", record.received),
            ("ctrl_perf", record.lyapunov),
            ("energy_balance", record.harvested - record.spend),
        )
    }
    nodes = [
        NodeSummary(
            node=i,
            p_required=float(record.required_p[i]),
            **{name: float(final[i]) for name, final in finals.items()},
            battery_final=float(record.battery[-1, i]),
            max_nu=record.nu[:, i, :].max(axis=0),
        )
        for i in range(record.count)
    ]
    return Summary(horizon=record.horizon, nodes=nodes, violations=dict(record.violations))
