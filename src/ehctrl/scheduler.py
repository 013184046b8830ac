"""Primal-dual random-access policy, evaluated for all nodes at once.

Node i owns one multiplier row: ``nu[i, i]`` prices its own reception
constraint, ``nu[i, j]`` (j != i) prices the interference it causes to node
j's constraint, ``phi[i]`` prices the log-domain reception requirement and
``beta[i]`` the average energy constraint. Remote multipliers enter only
through the stale copies, the last values received from the other nodes.
Every step below is elementwise across nodes. The functions hold no state:
each takes only the multiplier arrays it reads and returns new arrays (the
dual step writes into the ``out`` arrays it is given), and the caller keeps
the multipliers (:mod:`ehctrl.sim` in its record rows).

Closed forms, with c = nu_ii * q_i - q_c * sum_{j != i} nu_ji - beta:

    z    = clip(c / 2, 0, 1)                     exact argmin of z (z - c)
    s_ii = clip(phi / nu_ii, s_floor, 1)         (nu_ii = 0 -> 1)
    s_ij = clip(1 - phi / nu_ij, 0, 1 - s_floor) (nu_ij = 0 -> 0)
    y_ij = y_bar_ij if nu_ij > nu_bar_ij else 0

The dual ascent steps with fixed step size and non-negative projection:

    phi   += eps * (log p_i - log s_ii - sum_{j != i} log(1 - s_ij))
    nu_ii += eps * (s_ii - z * q_i - y_ii)
    nu_ij += eps * (q_c * z - s_ij - y_ij)
    beta  += eps * (z - e_i)

``beta`` mirrors battery depletion: beta = eps * (capacity - charge) holds
every slot as long as energy causality holds, which is what makes the battery
sizing rule enforce causality at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


def _cap_matrix(value, count: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full((count, count), float(arr))
    if arr.shape != (count, count):
        raise ConfigError(f"{name} must be scalar or {count}x{count}, got {arr.shape}")
    if np.any(arr <= 0):
        raise ConfigError(f"{name} entries must be positive")
    return arr


@dataclass(frozen=True, eq=False)
class SchedulerParams:
    """Fixed parameters of the primal-dual policy for ``count`` nodes."""

    epsilon: float
    nu_bar: np.ndarray
    y_bar: np.ndarray
    p: np.ndarray
    collision_prob: float
    s_floor: float = 1e-6
    log_p: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ConfigError("step size epsilon must be positive")
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        count = p.size
        if np.any(p < 0) or np.any(p >= 1):
            raise ConfigError("required reception probabilities must lie in [0, 1)")
        if not 0.0 < self.s_floor <= 0.01:
            raise ConfigError("s_floor must lie in (0, 0.01]")
        if not 0.0 <= self.collision_prob <= 1.0:
            raise ConfigError("collision_prob must lie in [0, 1]")
        object.__setattr__(self, "p", p)
        # libm logs, -inf where p = 0 (the phi step then projects to 0).
        object.__setattr__(
            self, "log_p", np.array([math.log(v) if v > 0.0 else -math.inf for v in p.tolist()])
        )
        object.__setattr__(self, "nu_bar", _cap_matrix(self.nu_bar, count, "nu_bar"))
        object.__setattr__(self, "y_bar", _cap_matrix(self.y_bar, count, "y_bar"))

    @property
    def count(self) -> int:
        return self.p.size


def sizing_needs(params: SchedulerParams) -> tuple[np.ndarray, np.ndarray]:
    """Smallest sized y_bar (M, M), which bounds the duals, and battery
    capacities (M,), which make per-slot energy causality hold."""
    eps = params.epsilon
    return (params.nu_bar + 2.0 * eps) / eps, np.diag(params.nu_bar) / eps + 1.0


def sizing_violations(params: SchedulerParams, capacities) -> list[str]:
    """Check the two sizing rules that bound the duals and guarantee per-slot
    energy causality. Returns one message per violated rule (empty = sized
    correctly)."""
    problems = []
    eps = params.epsilon
    needed_y, needed_b = sizing_needs(params)
    if np.any(params.y_bar < needed_y - 1e-12):
        worst = np.unravel_index(np.argmax(needed_y - params.y_bar), params.y_bar.shape)
        problems.append(
            f"auxiliary cap y_bar{[int(k) for k in worst]} = {params.y_bar[worst]:g} below "
            f"(nu_bar + 2*eps)/eps = {needed_y[worst]:g}"
        )
    capacities = np.atleast_1d(np.asarray(capacities, dtype=float))
    if capacities.size != params.count:
        raise ConfigError("one battery capacity per node required")
    if np.any(capacities < needed_b - 1e-12):
        worst = int(np.argmax(needed_b - capacities))
        problems.append(
            f"battery capacity of node {worst} is {capacities[worst]:g}, "
            f"below nu_bar_ii/eps + 1 = {needed_b[worst]:g}"
        )
    if eps > 2.0:
        problems.append(
            f"step size {eps:g} > 2 can break per-slot causality at fractional charge"
        )
    return problems


def compute_z(nu: np.ndarray, beta: np.ndarray, stale: np.ndarray, q: np.ndarray,
              params: SchedulerParams) -> np.ndarray:
    """Transmit probabilities: the exact minimizer of z (z - c) over [0, 1],
    i.e. clip(c / 2, 0, 1). Remote multipliers enter only through ``stale``,
    where ``stale[i, j]`` is node i's copy of nu_ji (zero diagonal)."""
    interference = np.add.reduce(stale, axis=1)
    c = nu.diagonal() * q - params.collision_prob * interference - beta
    return np.minimum(np.maximum(0.5 * c, 0.0), 1.0)


def compute_s(phi: np.ndarray, nu: np.ndarray, params: SchedulerParams
              ) -> tuple[np.ndarray, np.ndarray]:
    """Auxiliary reception variables ``s_own`` (M,) and ``s_cross`` (M, M)
    with zero diagonal. The floor keeps the log terms of the phi update
    finite; the nu = 0 corners take the limits of the closed forms
    (s_own -> 1, s_cross -> 0)."""
    floor = params.s_floor
    # phi / 0 reads as +inf, which the clips below send to the limits.
    ratio = np.empty(nu.shape)
    ratio.fill(np.inf)
    np.divide(phi[:, None], nu, out=ratio, where=nu != 0.0)
    s_own = np.minimum(np.maximum(ratio.diagonal(), floor), 1.0)
    s_cross = np.minimum(np.maximum(1.0 - ratio, 0.0), 1.0 - floor)
    s_cross.flat[:: len(nu) + 1] = 0.0
    return s_own, s_cross


def compute_y(nu: np.ndarray, params: SchedulerParams) -> np.ndarray:
    """Auxiliary relaxation variables: zero until a multiplier climbs
    strictly above its cap, then the full upper bound (ties stay at zero)."""
    return np.where(nu > params.nu_bar, params.y_bar, 0.0)


def dual_subgradients(
    z: np.ndarray,
    s_own: np.ndarray,
    s_cross: np.ndarray,
    y: np.ndarray,
    q: np.ndarray,
    e: np.ndarray,
    params: SchedulerParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stochastic subgradients (phi, nu, beta) of every node's dual function
    at the current primal point, evaluated on this slot's observations.

    The log terms stay on libm and are summed per node in ascending column
    order; entries with s_cross = 0 add -0.0 and are skipped exactly."""
    cross = [0] * len(z)
    rows, cols = s_cross.nonzero()
    for i, s in zip(rows.tolist(), s_cross[rows, cols].tolist()):
        cross[i] += math.log1p(-s)
    phi_grad = np.array([
        log_p - (math.log(s) + c)
        for log_p, s, c in zip(params.log_p.tolist(), s_own.tolist(), cross)
    ])
    nu_grad = params.collision_prob * z[:, None] - s_cross
    own = s_own - z * q
    if np.count_nonzero(y):  # x - 0.0 is x: only a fired relaxation is subtracted
        nu_grad -= y
        own -= y.diagonal()
    nu_grad.flat[:: len(z) + 1] = own
    return phi_grad, nu_grad, z - e


def apply_dual_step(
    phi: np.ndarray,
    nu: np.ndarray,
    beta: np.ndarray,
    grads: tuple[np.ndarray, np.ndarray, np.ndarray],
    params: SchedulerParams,
    available: np.ndarray | None = None,
    out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected ascent step for every node; writes the stepped ``(phi, nu,
    beta)`` into ``out`` (new arrays when None, which must not overlap the
    inputs otherwise) and returns it. Multiplier column j is frozen while
    node j is unavailable (``available[j]`` false), since its subgradient
    cannot be formed: its step is eps * 0.0. phi and beta always step."""
    phi_grad, nu_grad, beta_grad = grads
    eps = params.epsilon
    if out is None:
        out = np.empty_like(phi), np.empty_like(nu), np.empty_like(beta)
    phi_out, nu_out, beta_out = out
    np.multiply(eps, phi_grad, out=phi_out)
    np.multiply(eps, nu_grad, out=nu_out)
    if available is not None and np.count_nonzero(available) < available.size:
        np.copyto(nu_out, eps * 0.0, where=~available)
    np.multiply(eps, beta_grad, out=beta_out)
    # phi_grad = -inf (p_i = 0) projects cleanly to 0 here.
    for value, stepped in zip((phi, nu, beta), out):
        np.maximum(np.add(value, stepped, out=stepped), 0.0, out=stepped)
    return out
