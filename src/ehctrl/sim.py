"""Slot-loop orchestration of the coupled plant/channel/battery/dual system.

The state of all nodes lives in the record rows: row t of the multipliers
phi (M,), nu (M, M) and beta (M,) and of the battery charges (M,) is the
state slot t starts from, and the slot writes its successor into row t + 1.
The only state a per-slot core carries from slot to slot is the mailbox
(M, M); the plants step in one state stack per dimension. Every function the
loop calls takes arrays and returns arrays (the dual step writes into the
record rows it is given); the small-M form of the per-slot core (see below)
works on Python floats, and the array form forms its cross terms on them.
Every slot runs, in this fixed order:

  1. draw channel states and harvest arrivals
  2. every node computes its auxiliary, reception and transmit variables
     from its own multipliers and the other nodes' copies in its mailbox
     row, which may be stale (always-on mode refreshes them every slot)
  3. Bernoulli transmission draws
  4. collision/decoding resolution -> per-node reception flags
  5. plants step (closed loop on reception, open loop otherwise): scalar
     plants on Python floats, one stacked matmul per matrix dimension
  6. batteries step with the energy spend (the transmit probability under
     fluid accounting, the transmission under integer accounting)
  7. dual subgradient updates, masked by availability
  8. multiplier exchange into the mailboxes
  9. telemetry rows: the state after the slot goes into row t + 1

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
    slot), harvests are checked to be non-negative, the h, q and e columns
    are recorded, and random mode's up flags are set (node i is up in a
    slot when its availability draw is below ``prob``);
  * per slot, the core runs steps 2, 3, 6, 7 and 8 and writes the z,
    transmitted, battery, phi, beta and nu rows. Batteries and transmission
    draws stay in it because integer accounting gates transmission on
    charge, and piggyback exchanges ride on transmissions;
  * after the chunk, its recorded rows are replayed: collisions (step 4,
    :func:`~ehctrl.comm.resolve_chunk`), plant steps (step 5,
    :meth:`~ehctrl.control.PlantBank.replay`, writing the state rows) and
    the invariant checks.

The per-slot core comes in two forms with one signature, chosen by the node
count alone. :func:`_array_chunk` evaluates every node at once in one
in-place pass per slot: about 55 numpy calls whatever M is, which write
into the record rows or into scratch allocated once per chunk, and one
Python step per cross pair whose s_ij can be nonzero (phi_i < nu_ij; about
25 per slot at M = 32). It calls the three functions the fault-injection
tests patch (:func:`~ehctrl.scheduler.compute_z`,
:func:`~ehctrl.energy.step_batteries` and
:func:`~ehctrl.scheduler.apply_dual_step`) and does the other steps itself,
with the operations of the scheduler and coordination functions in their
order. :func:`_scalar_chunk` does the same operations in
the same order on Python floats, node by node, so its cost grows with M^2
but starts far lower; it runs up to ``SCALAR_MAX_NODES`` = 7 nodes, the
largest count at which it can give the array core's bytes (below). Its slot
loop is straight-line source generated per shape (node count, availability
mode, energy accounting) with every node and pair loop unrolled, each
multiplier, charge and mailbox entry a local. The first run of a shape
compiles it, once per process (:func:`_kernel`), and ``linecache`` holds
it under a name giving the shape, for tracebacks and debuggers. Every
config value (step size, collision probability, floors, log p, caps,
capacities, staleness bound) is an argument, so the source depends on the
shape alone and no config text becomes code. The kernel reads the draws as
one list per node column and extends one flat list per chunk, so no object
outlives its slot to keep the cyclic collector busy.

Both forms give the same bytes because every operation is one IEEE
operation or the same libm call on each side, with three orders kept:
  * every clip is a conditional expression that takes its arguments as
    numpy's clips do. Python's ``max(x, lo)`` is exactly ``lo if lo > x
    else x`` and ``min(x, hi)`` is exactly ``hi if hi < x else x``, NaN and
    -0.0 included, so for lo <= hi ``min(max(x, lo), hi)`` is ``lo if lo >
    x else hi if hi < x else x``. They differ from numpy only on -0.0,
    which no state reaches;
  * the interference is summed left to right from column 0;
  * the cross-log sum starts from int 0 in ascending column order.
The kernel's random mode also keeps the diagonal of the forced matrix in
the column reduction of its availability, as the array core does, and the
array core forms each cross pair's s_ij, log1p(-s_ij) and subgradient
q_c z_i - s_ij on Python floats with the kernel's expressions. numpy's
``add.reduce`` sums a row left to right only when it has fewer than 8
entries (it sums longer rows pairwise in blocks of 8), which sets the
threshold at 7. The fault-injection tests patch module functions that
only the array core calls; they set ``SCALAR_MAX_NODES`` to 0.

The record keeps raw per-slot columns only. Its state columns (plant
states, battery, phi, beta, nu) hold T + 1 rows while the run lasts, row
t + 1 the state after slot t; at the end every column is trimmed to the
completed slots. The certificate V = x'Wx is computed from the saved states
after the loop (of the completed rows on an abort); :func:`running_mean`
derives the running averages for :func:`summarize` and the telemetry
writers. Two runs with equal config and seed produce identical outputs.

Runtime-checked invariants, on the state after slot t (record row t + 1):
finite plant state, the multiplier cap nu <= nu_bar + epsilon and the
mirror identity beta = epsilon * (capacity - charge) under fluid energy
accounting; and per-slot energy causality, the spend of slot t against the
charge of row t. The earliest breach aborts the run: the earliest slot,
then the order of the steps that break them (non-finite state, causality,
then the first node breaking the cap or the mirror, the cap first). The
breach, an :class:`~ehctrl.errors.InvariantBreach`, becomes the record's
``breach``, the record is cut after its slot as if the run had stopped
there, and :class:`SimulationAborted` carries the record. A diverging
plant is stepped to the end of its chunk first; its overflows past the
breach raise no numpy warning, since the abort reports them.
"""

from __future__ import annotations

import functools
import linecache
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import comm, energy, scheduler
from .comm import ChannelConfig
from .control import PlantBank, PlantModel
from .coordination import AvailabilitySchedule, DualMailbox
from .energy import HarvestConfig
from .errors import (
    BREACH_KINDS,
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

# Slots of each random stream drawn per call; bounds the draw buffers to
# O(DRAW_CHUNK * M) whatever the horizon.
DRAW_CHUNK = 256

# Node counts up to this run the slot core on Python floats
# (:func:`_scalar_chunk`), larger ones on arrays (:func:`_array_chunk`): the
# largest M whose rows numpy sums left to right (see the module docstring).
SCALAR_MAX_NODES = 7

_STREAM_NAMES = ("channel", "harvest", "transmission", "collision", "availability", "noise")

# The (M,) fields of a :class:`Summary`, in the column order of summary.csv.
SUMMARY_FIELDS = ("p_required", "p_tx", "p_rx_analytic", "p_rx_empirical", "ctrl_perf",
                  "energy_balance", "battery_final")


def battery_problem(capacity: float, charge: float) -> tuple[str, str] | None:
    """The config key at fault and the message, or None, for one battery."""
    if not capacity > 0.0:
        return "capacity", "battery capacity must be positive"
    if not 0.0 <= charge <= capacity:
        return "initial", f"battery charge {charge} outside [0, {capacity}]"
    return None


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Complete, validated description of one simulation run. ``capacity``
    and ``charge`` are the (M,) battery capacities and start charges;
    ``initial_states`` holds one start state per plant, zeros when given as
    None."""

    plants: tuple[PlantModel, ...]
    channel: ChannelConfig
    harvests: tuple[HarvestConfig, ...]
    capacity: np.ndarray
    charge: np.ndarray
    params: SchedulerParams
    availability: AvailabilitySchedule
    horizon: int
    seed: int
    energy_accounting: str = "fluid"
    initial_states: tuple[np.ndarray, ...] | None = None
    schedule_window: tuple[int, int] = (1050, 1100)

    def __post_init__(self):
        count = len(self.plants)
        if count < 1:
            raise ConfigError("need at least one plant")
        if len(self.harvests) != count:
            raise ConfigError("harvests must list one entry per plant")
        capacity = np.array(self.capacity, dtype=float)
        charge = np.array(self.charge, dtype=float)
        if capacity.shape != (count,) or charge.shape != (count,):
            raise ConfigError("batteries must list one entry per plant")
        for problem in map(battery_problem, capacity.tolist(), charge.tolist()):
            if problem:
                raise ConfigError(problem[1])
        object.__setattr__(self, "capacity", capacity)
        object.__setattr__(self, "charge", charge)
        if self.params.count != count:
            raise ConfigError("scheduler params sized for a different node count")
        if self.horizon < 0:
            raise ConfigError("horizon must be non-negative")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")
        if self.energy_accounting not in ENERGY_ACCOUNTING_MODES:
            raise ConfigError(f"energy_accounting must be one of {ENERGY_ACCOUNTING_MODES}")
        states = (
            [np.zeros(plant.dim) for plant in self.plants] if self.initial_states is None
            else [np.atleast_1d(np.asarray(x, dtype=float)) for x in self.initial_states]
        )
        if len(states) != count:
            raise ConfigError("initial_states must list one vector per plant")
        for x, plant in zip(states, self.plants):
            if x.shape != (plant.dim,):
                raise ConfigError("initial state dimension does not match plant")
        object.__setattr__(self, "initial_states", tuple(states))

    @property
    def count(self) -> int:
        return len(self.plants)


@dataclass(eq=False)
class TelemetryRecord:
    """Raw per-slot columns of one run and the ``breach`` that stopped it, if
    any. Running averages are derived with :func:`running_mean`."""

    horizon: int
    count: int
    required_p: np.ndarray
    collision_prob: float
    energy_accounting: str = "fluid"
    # per plant, (T + 1, n_i) while the run lasts, (T, n_i) at its end
    states: list[np.ndarray] = field(default_factory=list)
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
    breach: InvariantBreach | None = None

    @property
    def spend(self) -> np.ndarray:
        """Energy each battery paid per slot: the transmit probability under
        fluid accounting, whole transmissions under integer accounting."""
        return self.z if self.energy_accounting == "fluid" else self.transmitted


@dataclass(eq=False)
class Summary:
    """Final averages of one run: every field but ``horizon``,
    ``violations`` and the (M, M) ``max_nu`` is an (M,) array, node i in
    entry i. All are empty for a zero-length run."""

    horizon: int
    violations: dict
    p_required: np.ndarray
    p_tx: np.ndarray
    p_rx_analytic: np.ndarray
    p_rx_empirical: np.ndarray
    ctrl_perf: np.ndarray
    energy_balance: np.ndarray
    battery_final: np.ndarray
    max_nu: np.ndarray


@dataclass(eq=False)
class SimResult:
    config: SimConfig
    record: TelemetryRecord
    summary: Summary


class SimulationAborted(RuntimeError):
    """A runtime invariant broke mid-run: ``record`` holds the partial
    telemetry, ``cause`` its ``breach`` and ``slot`` the breach's slot."""

    def __init__(self, record: TelemetryRecord):
        super().__init__(record)
        self.record, self.cause, self.slot = record, record.breach, record.breach.slot

    def __str__(self) -> str:
        return f"run aborted at slot {self.slot}: {self.cause}"


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
    for name in ("z", "h", "q", "harvested"):
        setattr(record, name, np.zeros((T, M)))
    for name in ("battery", "phi", "beta"):
        setattr(record, name, np.zeros((T + 1, M)))
    for name in ("transmitted", "received", "collided"):
        setattr(record, name, np.zeros((T, M), dtype=bool))
    record.nu = np.zeros((T + 1, M, M))


def _finalize(record: TelemetryRecord, plants: PlantBank) -> None:
    """Certify the saved states, then trim every column to the completed
    slots: up to the breach, if any."""
    upto = record.horizon if record.breach is None else record.breach.slot + 1
    record.lyapunov = plants.certificates(upto)
    record.horizon = upto
    record.states = [s[:upto] for s in record.states]
    for name in (
        "z", "h", "q", "battery", "harvested", "phi", "beta",
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
    per-slot rows of q, e, the transmission uniforms, the up flags (a node
    is up when its availability draw is below ``prob``; None outside random
    mode) and the process noise stacks."""
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
        _uniforms(streams["availability"], size) < config.availability.prob
        if config.availability.mode == "random"
        else [None] * size
    )
    transmit = _uniforms(streams["transmission"], size)
    return q, e, transmit, availability, plants.draw_noise(streams["noise"], size)


def _array_chunk(config: SimConfig, record: TelemetryRecord, mailbox: DualMailbox,
                 start: int, q_chunk, e_chunk, transmit, availability) -> None:
    """Steps 2, 3, 6, 7 and 8 of the slots from ``start`` on, one per row of
    the chunk's draws, one in-place pass per slot over all nodes at once.
    Reads slot t's state from record rows t and writes its z and
    transmitted rows and the state after it into rows t + 1, through
    ``out=`` into those rows or into scratch allocated once per chunk; only
    the results of :func:`~ehctrl.scheduler.compute_z` and
    :func:`~ehctrl.energy.step_batteries`, which the fault-injection tests
    patch, are copied in. Across slots it carries nothing but ``mailbox``,
    updated in place. The operations are those of the scheduler's closed
    forms, :func:`~ehctrl.coordination.advance_availability` and
    :func:`~ehctrl.coordination.exchange_duals`, in their order, except
    for the cross terms: multipliers are never negative, so s_ij = 0
    wherever phi_i >= nu_ij, and the other pairs' s_ij, log terms and
    subgradients are formed on Python floats as the scalar kernel forms
    them."""
    M, params, mode = config.count, config.params, config.availability.mode
    fluid = config.energy_accounting == "fluid"
    qc, floor, log_p = params.collision_prob, params.s_floor, params.log_p.tolist()
    ceil, bound = 1.0 - floor, config.availability.staleness_bound
    log, log1p, inf = math.log, math.log1p, math.inf
    pairs = ~np.eye(M, dtype=bool)
    values, stamps = mailbox.values, mailbox.slots
    so, zq, zq_own, phi_grad, beta_grad, spend = np.empty((6, M))
    own_nonzero, gate, available = np.empty((3, M), dtype=bool)
    nu_grad = np.empty((M, M))
    flat_grad = nu_grad.reshape(-1)
    own_grad = flat_grad[:: M + 1]
    cross_open, fired, forced, exchange = np.empty((4, M, M), dtype=bool)
    flat_open = cross_open.reshape(-1)
    if mode == "always-on":  # every pair exchanges every slot
        exchange[...] = pairs
    elif mode == "random":  # pairs whose two ends are up, per slot
        up_pairs = availability[:, :, None] & availability[:, None, :] & pairs
    for k, (q, e, u, up) in enumerate(zip(q_chunk, e_chunk, transmit, availability)):
        t = start + k
        phi, nu, beta, charge = record.phi[t], record.nu[t], record.beta[t], record.battery[t]
        after = record.phi[t + 1], record.nu[t + 1], record.beta[t + 1]

        # 2. primal computation from current duals and stale copies
        z = scheduler.compute_z(nu, beta, values, q, params)
        record.z[t] = z

        # 3. transmission draws into the record row (integer accounting
        # gates on whole units and spends them)
        tx = np.less(u, z, out=record.transmitted[t])
        if not fluid:
            np.logical_and(tx, np.greater_equal(charge, 1.0, out=gate), out=tx)
            np.copyto(spend, tx)

        # 6. battery steps (fluid: the transmit probability is the spend);
        # 9. the state after the slot goes into rows t + 1 as it is computed
        record.battery[t + 1] = energy.step_batteries(
            charge, config.capacity, z if fluid else spend, e)

        # 7. availability: a refresh is forced where the staleness would
        # pass the bound next slot; random mode's column reduction keeps
        # the diagonal
        if mode != "always-on":
            np.less(stamps, t + 1 - bound, out=forced)
            if mode == "random":
                np.logical_or(np.logical_or.reduce(forced, axis=0, out=available), up,
                              out=available)
                np.logical_or(up_pairs[k], np.logical_and(forced, pairs, out=exchange),
                              out=exchange)
            else:  # piggyback: the sender's packet carries its duals
                np.logical_and(np.logical_or(tx, forced, out=exchange), pairs, out=exchange)

        # 7. subgradients: q_c z_i - s_ij off the diagonal, s_ii - z_i q_i
        # on it, less y_bar_ij where nu_ij is above its cap
        diagonal = nu.diagonal()
        if np.count_nonzero(diagonal) == M:
            np.divide(phi, diagonal, out=so)
        else:  # phi / 0 reads as +inf wherever nu_ii = 0; the clips send it to 1
            so.fill(inf)
            np.divide(phi, diagonal, out=so, where=np.not_equal(diagonal, 0.0, out=own_nonzero))
        np.minimum(np.maximum(so, floor, out=so), 1.0, out=so)
        np.multiply(qc, z, out=zq)
        np.copyto(nu_grad, zq[:, None])
        np.subtract(so, np.multiply(z, q, out=zq_own), out=own_grad)
        # s_ij = 0 where phi_i >= nu_ij; the other pairs j != i are open
        cross = [0] * M
        np.less(np.greater_equal(phi[:, None], nu, out=cross_open), pairs, out=cross_open)
        open_pairs = flat_open.nonzero()[0]
        if open_pairs.size:
            phis, zqs, g = phi.tolist(), zq.tolist(), []
            for ij, n in zip(open_pairs.tolist(), nu.take(open_pairs).tolist()):
                i = ij // M
                s = 1.0 - (phis[i] / n if n != 0.0 else inf)
                s = 0.0 if 0.0 > s else ceil if ceil < s else s
                if s:  # s = 0 adds -0.0 to the log sum: skipped exactly
                    cross[i] += log1p(-s)
                g.append(zqs[i] - s)
            flat_grad[open_pairs] = g
        if np.count_nonzero(np.greater(nu, params.nu_bar, out=fired)):
            np.subtract(nu_grad, params.y_bar, out=nu_grad, where=fired)
        phi_grad[:] = [lp - (log(s) + c) for lp, s, c in zip(log_p, so.tolist(), cross)]
        np.subtract(z, e, out=beta_grad)

        # 7. masked dual updates into the rows t + 1
        scheduler.apply_dual_step(phi, nu, beta, (phi_grad, nu_grad, beta_grad), params,
                                  available if mode == "random" else None, out=after)

        # 8. exchange into mailboxes (post-update values, stamped this slot)
        np.putmask(values, exchange, after[1].T)
        np.putmask(stamps, exchange, t)


@functools.cache
def _kernel(count: int, mode: str, accounting: str):
    """The compiled slot kernel of one shape, built on first use and kept
    for the life of the process (at most 7 x 3 x 2 shapes). Its source is
    registered with ``linecache`` under a name that gives the shape, so
    tracebacks and debuggers show its lines."""
    filename = f"<ehctrl.sim slot kernel: {count} nodes, {mode}, {accounting}>"
    source = _kernel_source(count, mode, accounting == "fluid")
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"log": math.log, "log1p": math.log1p, "inf": math.inf}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["kernel"]


def _kernel_source(count: int, mode: str, fluid: bool) -> str:
    """Source of the slot kernel of one shape: :func:`_array_chunk`'s slot
    on Python floats with every node and pair loop unrolled, the
    multipliers, charges and mailbox entries as locals. It reads the config
    values from ``consts`` and the start state from ``state`` and
    ``stamps``, takes one row of draws per slot from ``rows``, extends
    ``out`` per slot with the z, transmitted, battery, phi, beta and nu
    rows, and returns the mailbox values and stamps."""
    nodes = range(count)
    every = [(i, j) for i in nodes for j in nodes]
    pairs = [(i, j) for i, j in every if i != j]

    def per_node(*names):
        return [f"{name}{i}" for name in names for i in nodes]

    def per_pair(*names):
        return [f"{name}{i}_{j}" for name in names for i, j in every]

    def joined(names):
        return ", ".join(names) + ","

    draws = per_node("q", "e", "u", *(("up",) if mode == "random" else ()))
    # 7. availability of this slot (random mode keeps the diagonal of the
    # forced matrix in the column reduction, as the array core does)
    forced = [] if mode == "always-on" else every if mode == "random" else pairs
    body = ["t1 = t + 1"] if forced else []
    body += [f"f{i}_{j} = t1 - st{i}_{j} > bound" for i, j in forced]
    if mode == "random":
        body += [f"a{j} = up{j} or " + " or ".join(f"f{i}_{j}" for i in nodes) for j in nodes]
    for i in nodes:
        body += [
            # 2. interference summed left to right from column 0
            f"z{i} = 0.5 * (n{i}_{i} * q{i} - qc * ({' + '.join(f'v{i}_{j}' for j in nodes)})"
            f" - b{i})",
            f"z{i} = 0.0 if 0.0 > z{i} else 1.0 if 1.0 < z{i} else z{i}",
            # 3. (integer accounting gates on whole units) and 6.
            f"tx{i} = u{i} < z{i}" + ("" if fluid else f" and c{i} >= 1.0"),
            f"c{i} = c{i} - " + (f"z{i}" if fluid else f"(1.0 if tx{i} else 0.0)") + f" + e{i}",
            f"c{i} = 0.0 if 0.0 > c{i} else cap{i} if cap{i} < c{i} else c{i}",
            # 7. node i's row of the dual step; phi / 0 reads as +inf, which
            # the clips send to the limits
            f"so = p{i} / n{i}_{i} if n{i}_{i} != 0.0 else inf",
            "so = floor if floor > so else 1.0 if 1.0 < so else so",
            f"zq = qc * z{i}",
            "cross = 0",
        ]
        for j in nodes:
            if j == i:
                body.append(f"g = so - z{i} * q{i}")
            else:
                body += [
                    f"s = 1.0 - (p{i} / n{i}_{j} if n{i}_{j} != 0.0 else inf)",
                    "s = 0.0 if 0.0 > s else ceil if ceil < s else s",
                    "if s:  # s = 0 adds -0.0 to the log sum: skipped exactly",
                    "    cross += log1p(-s)",
                    "g = zq - s",
                ]
            masked = f"(g if a{j} else 0.0)" if mode == "random" else "g"
            body += [
                f"g = g - yb{i}_{j} if n{i}_{j} > nb{i}_{j} else g",
                f"n{i}_{j} = n{i}_{j} + eps * {masked}",
                f"n{i}_{j} = 0.0 if 0.0 > n{i}_{j} else n{i}_{j}",
            ]
        body += [
            f"p{i} = p{i} + eps * (lp{i} - (log(so) + cross))",
            f"p{i} = 0.0 if 0.0 > p{i} else p{i}",
            f"b{i} = b{i} + eps * (z{i} - e{i})",
            f"b{i} = 0.0 if 0.0 > b{i} else b{i}",
        ]
    # 8. exchange the post-update values
    for i, j in pairs:
        exchange = [f"v{i}_{j} = n{j}_{i}", f"st{i}_{j} = t"]
        if mode == "always-on":
            body += exchange
        else:
            up = f"up{i} and up{j}" if mode == "random" else f"tx{j}"
            body += [f"if {up} or f{i}_{j}:", *("    " + line for line in exchange)]
    body.append(f"out += ({joined(per_node('z', 'tx', 'c', 'p', 'b') + per_pair('n'))})")
    consts = ["eps", "qc", "floor", "ceil", "bound", *per_node("lp"), *per_pair("nb", "yb"),
              *per_node("cap")]
    lines = [
        "def kernel(rows, out, state, stamps, consts):",
        f"    {joined(consts)} = consts",
        f"    {joined(per_node('c', 'p', 'b') + per_pair('n', 'v'))} = state",
        f"    {joined(per_pair('st'))} = stamps",
        f"    for t, {joined(draws)} in rows:",
        *("        " + line for line in body),
        f"    return ({joined(per_pair('v'))}), ({joined(per_pair('st'))})",
    ]
    return "\n".join(lines) + "\n"


def _scalar_chunk(config: SimConfig, record: TelemetryRecord, mailbox: DualMailbox,
                  start: int, q_chunk, e_chunk, transmit, availability) -> None:
    """:func:`_array_chunk` through the generated kernel of the run's shape
    (node count, availability mode, energy accounting): per node the same
    operations in the same order, so the same bytes (see the module
    docstring). Hands the kernel the config values, the start state and
    the mailbox as flat lists and the draws as one column list per node,
    and writes the chunk's record rows and the mailbox back once."""
    M, mode, params = config.count, config.availability.mode, config.params
    kernel = _kernel(M, mode, config.energy_accounting)
    columns = [*q_chunk.T.tolist(), *e_chunk.T.tolist(), *transmit.T.tolist()]
    if mode == "random":
        columns += availability.T.tolist()
    floor = float(params.s_floor)
    consts = (
        float(params.epsilon), float(params.collision_prob), floor, 1.0 - floor,
        config.availability.staleness_bound,
        *np.concatenate([params.log_p, params.nu_bar.ravel(), params.y_bar.ravel(),
                         config.capacity]).tolist(),
    )
    state = np.concatenate([record.battery[start], record.phi[start], record.beta[start],
                            record.nu[start].ravel(), mailbox.values.ravel()]).tolist()
    stop = start + len(q_chunk)
    out = []
    values, stamps = kernel(zip(range(start, stop), *columns), out, state,
                            mailbox.slots.ravel().tolist(), consts)

    # 9. one array for the chunk, its columns into the record rows
    block = np.reshape(out, (stop - start, 5 + M, M))
    record.z[start:stop], record.transmitted[start:stop] = block[:, 0], block[:, 1]
    span = slice(start + 1, stop + 1)
    record.battery[span], record.phi[span], record.beta[span], record.nu[span] = (
        block[:, 2], block[:, 3], block[:, 4], block[:, 5:])
    mailbox.values[...] = np.reshape(values, (M, M))
    mailbox.slots[...] = np.reshape(stamps, (M, M))


def run(config: SimConfig) -> SimResult:
    """Run the full slot loop; returns telemetry and summary, raising
    :class:`SimulationAborted` (partial telemetry attached) on any invariant
    breach."""
    M = config.count
    T = config.horizon
    params = config.params
    streams = make_streams(config.seed, M)
    logger.debug(
        "run: %d nodes, %d slots, seed %d, %s", M, T, config.seed, config.availability.mode
    )

    plants = PlantBank(config.plants, config.initial_states)
    mailbox = DualMailbox(M)

    record = TelemetryRecord(
        horizon=T, count=M, required_p=params.p.copy(),
        collision_prob=params.collision_prob,
        energy_accounting=config.energy_accounting,
    )
    _allocate(record, config)
    record.states = plants.history(T)
    record.battery[0] = config.charge
    # beta starts at the initial battery headroom scaled by the step size, so
    # it mirrors the battery from row 0 on; phi and nu start at zero.
    record.beta[0] = params.epsilon * (config.capacity - config.charge)

    core = _scalar_chunk if M <= SCALAR_MAX_NODES else _array_chunk
    try:
        for start in range(0, T, DRAW_CHUNK):
            stop = min(start + DRAW_CHUNK, T)
            # 1. environment draws, with every other feedback-free stream
            q_chunk, e_chunk, transmit, availability, noise = _draw_chunk(
                config, streams, plants, record, start, stop
            )
            # 2., 3., 6., 7. and 8. slot by slot, 9. into record rows
            core(config, record, mailbox, start, q_chunk, e_chunk, transmit, availability)

            # 4. and 5. replayed over the chunk's rows, then the checks
            received, collided = comm.resolve_chunk(
                params.collision_prob, record.transmitted[start:stop], q_chunk,
                streams["collision"]
            )
            record.received[start:stop] = received
            record.collided[start:stop] = collided
            plants.replay(received, noise, start)
            _check_chunk(config, record, plants, start, stop)
    except InvariantBreach as exc:
        record.breach = exc

    _finalize(record, plants)
    if record.breach is not None:
        raise SimulationAborted(record) from record.breach
    return SimResult(config=config, record=record, summary=summarize(record))


def _check_chunk(config: SimConfig, record: TelemetryRecord, plants: PlantBank,
                 start: int, stop: int) -> None:
    """Raise the earliest invariant breach of the slots ``start`` to
    ``stop``: the earliest slot, then the step order (see the module
    docstring). The state after slot t is record row t + 1."""
    eps, capacity = config.params.epsilon, config.capacity
    cap = config.params.nu_bar + eps + DUAL_BOUND_ATOL
    rows, after = slice(start, stop), slice(start + 1, stop + 1)
    nonfinite = plants.nonfinite(start, stop)
    overspent = record.spend[rows] > record.battery[rows] + energy.CAUSALITY_ATOL
    nu, beta, charge = record.nu[after], record.beta[after], record.battery[after]
    over = (nu > cap).any(axis=-1)
    off = np.abs(beta - eps * (capacity - charge)) > MIRROR_ATOL
    dual = over | off if config.energy_accounting == "fluid" else over
    breached = (nonfinite | overspent | dual).any(axis=1)
    if not breached.any():
        return
    k = int(breached.argmax())
    t = start + k
    if nonfinite[k].any():
        raise InvalidStateError(t, int(nonfinite[k].argmax()))
    if overspent[k].any():
        i = int(overspent[k].argmax())
        raise EnergyCausalityError(t, i, float(record.spend[t, i]), float(record.battery[t, i]))
    i = int(dual[k].argmax())
    if over[k, i]:
        raise InvariantViolation(t, i, nu[k, i].copy(), cap[i], kind="dual_bound")
    raise InvariantViolation(t, i, float(beta[k, i]), float(eps * (capacity[i] - charge[k, i])),
                             kind="mirror")


def summarize(record: TelemetryRecord) -> Summary:
    """Final summary of ``record``; empty arrays for a zero-length run. The
    ``violations`` counters hold a 1 at the kind of the record's breach."""
    kind = None if record.breach is None else record.breach.kind
    violations = {k: int(k == kind) for k in BREACH_KINDS}
    if record.horizon == 0:
        return Summary(horizon=0, violations=violations,
                       **dict.fromkeys(SUMMARY_FIELDS, np.zeros(0)), max_nu=np.zeros((0, 0)))

    def final(values):  # a copy: a view would keep the (T, M) running mean alive
        return running_mean(values)[-1].copy()

    return Summary(
        horizon=record.horizon,
        violations=violations,
        p_required=np.array(record.required_p, dtype=float),
        p_tx=final(record.z),
        p_rx_analytic=final(per_slot_reception(record.z, record.q, record.collision_prob)),
        p_rx_empirical=final(record.received),
        ctrl_perf=final(record.lyapunov),
        energy_balance=final(record.harvested - record.spend),
        battery_final=record.battery[-1].copy(),
        max_nu=record.nu.max(axis=0),
    )
