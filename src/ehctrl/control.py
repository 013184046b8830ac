"""Plant dynamics, quadratic performance accounting, and the translation of a
Lyapunov decrease-rate target into a required packet-reception probability.

The reception requirement is the smallest mixing weight ``theta`` for which

    theta * Ac'P Ac + (1 - theta) * Ao'P Ao  <=  rho * P   (PSD order)

holds. The pencil is affine in ``theta``, so its feasible set is an interval
touching ``theta = 1`` whenever the closed loop meets the rate; a scalar
bisection on the smallest eigenvalue replaces a general SDP solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, InfeasibleTargetError, InvalidStateError

SYMMETRY_RTOL = 1e-9
DEFAULT_LMI_TOL = 1e-6


def _as_square_matrix(value, name: str) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(value, dtype=float))
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} contains non-finite entries")
    return arr


def _check_symmetric(mat: np.ndarray, name: str) -> np.ndarray:
    scale = max(np.abs(mat).max(), 1.0)
    if np.abs(mat - mat.T).max() > SYMMETRY_RTOL * scale:
        raise ConfigError(f"{name} is not symmetric within {SYMMETRY_RTOL} relative")
    return 0.5 * (mat + mat.T)


@dataclass(frozen=True, eq=False)
class PlantModel:
    """Switched linear plant with a quadratic performance certificate.

    ``a_closed`` drives the state on slots whose measurement packet arrived,
    ``a_open`` otherwise. ``lyapunov_weight`` is the positive-definite weight
    of the quadratic certificate, ``noise_cov`` the process-noise covariance,
    and ``decrease_rate`` the required per-slot shrink factor in (0, 1).
    """

    a_open: np.ndarray
    a_closed: np.ndarray
    noise_cov: np.ndarray
    lyapunov_weight: np.ndarray
    decrease_rate: float
    noise_factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a_open = _as_square_matrix(self.a_open, "a_open")
        a_closed = _as_square_matrix(self.a_closed, "a_closed")
        cov = _check_symmetric(_as_square_matrix(self.noise_cov, "noise_cov"), "noise_cov")
        weight = _check_symmetric(
            _as_square_matrix(self.lyapunov_weight, "lyapunov_weight"), "lyapunov_weight"
        )
        n = a_open.shape[0]
        for name, mat in (("a_closed", a_closed), ("noise_cov", cov), ("lyapunov_weight", weight)):
            if mat.shape != (n, n):
                raise ConfigError(f"{name} shape {mat.shape} does not match state dim {n}")
        weight_eigs = np.linalg.eigvalsh(weight)
        if weight_eigs.min() <= 0:
            raise ConfigError("lyapunov_weight must be positive definite")
        cov_eigs, cov_vecs = np.linalg.eigh(cov)
        if cov_eigs.min() < -1e-12 * max(cov_eigs.max(), 1.0):
            raise ConfigError("noise_cov must be positive semidefinite")
        if not 0.0 < self.decrease_rate < 1.0:
            raise ConfigError(f"decrease_rate must lie in (0, 1), got {self.decrease_rate}")
        # Factor L with L L' = noise_cov; eigen-based so singular PSD is fine.
        factor = cov_vecs @ np.diag(np.sqrt(np.clip(cov_eigs, 0.0, None)))
        object.__setattr__(self, "a_open", a_open)
        object.__setattr__(self, "a_closed", a_closed)
        object.__setattr__(self, "noise_cov", cov)
        object.__setattr__(self, "lyapunov_weight", weight)
        object.__setattr__(self, "noise_factor", factor)

    @property
    def dim(self) -> int:
        return self.a_open.shape[0]


class PlantBank:
    """The plants of one run and their current states.

    Scalar plants step together as one vector; each matrix plant keeps its
    own matmul. Process noise is ``noise_factor @ normal`` with standard
    normal draws from each plant's own stream.
    """

    def __init__(self, models: Sequence[PlantModel], states: Sequence[np.ndarray]):
        self.models = tuple(models)
        self.scalar = np.array([i for i, m in enumerate(models) if m.dim == 1], dtype=int)
        self.matrix = [i for i, m in enumerate(models) if m.dim > 1]
        self._matrix_models = [self.models[i] for i in self.matrix]
        picked = [self.models[i] for i in self.scalar]
        self._a_open = np.array([m.a_open[0, 0] for m in picked])
        self._a_closed = np.array([m.a_closed[0, 0] for m in picked])
        self._weight = np.array([m.lyapunov_weight[0, 0] for m in picked])
        self._factor = np.array([m.noise_factor[0, 0] for m in picked])
        self.x_scalar = np.array([float(states[i][0]) for i in self.scalar])
        self.x_matrix = [np.array(states[i], dtype=float) for i in self.matrix]
        self._scalar_history = np.zeros((0, self.scalar.size))
        self._matrix_history: list[np.ndarray] = []

    def draw_normals(self, rngs: Sequence[np.random.Generator], size: int) -> list[tuple]:
        """``size`` consecutive slots of standard normal draws, one tuple per
        slot: the scalar plants' draws, then one vector per matrix plant."""
        scalar = np.array(
            [rngs[i].standard_normal(size) for i in self.scalar], dtype=float
        ).reshape(self.scalar.size, size).T
        matrix = [
            rngs[i].standard_normal((size, m.dim)) for i, m in zip(self.matrix, self._matrix_models)
        ]
        return list(zip(scalar, *matrix))

    def history(self, horizon: int) -> list[np.ndarray]:
        """Per-plant (horizon, dim) state buffers filled by :meth:`save`; the
        scalar plants' buffers are columns of one array."""
        self._scalar_history = np.zeros((horizon, self.scalar.size))
        states = [None] * len(self.models)
        for k, i in enumerate(self.scalar):
            states[i] = self._scalar_history[:, k:k + 1]
        for i, m in zip(self.matrix, self._matrix_models):
            states[i] = np.zeros((horizon, m.dim))
        self._matrix_history = [states[i] for i in self.matrix]
        return states

    def save(self, t: int) -> None:
        """Store the current states in row ``t`` of the history buffers."""
        self._scalar_history[t] = self.x_scalar
        for buffer, x in zip(self._matrix_history, self.x_matrix):
            buffer[t] = x

    def lyapunov(self) -> np.ndarray:
        """Quadratic certificate values x' W x of every plant (>= 0)."""
        values = np.empty(len(self.models))
        values[self.scalar] = self.x_scalar * self._weight * self.x_scalar
        for i, m, x in zip(self.matrix, self._matrix_models, self.x_matrix):
            values[i] = float(x @ m.lyapunov_weight @ x)
        return values

    def step(self, received: np.ndarray, normals: tuple, slot: int = 0) -> None:
        """Advance every plant one slot: closed-loop dynamics where the
        packet arrived, open loop otherwise, plus process noise. Raises
        :class:`InvalidStateError` naming the first plant that went
        non-finite."""
        scalar_normal, *matrix_normals = normals
        gain = np.where(received[self.scalar], self._a_closed, self._a_open)
        # A matmul sums from +0.0, so its noise is never -0.0; match that.
        x_scalar = gain * self.x_scalar + (self._factor * scalar_normal + 0.0)
        x_matrix = [
            (m.a_closed if received[i] else m.a_open) @ x + m.noise_factor @ normal
            for i, m, x, normal in zip(self.matrix, self._matrix_models, self.x_matrix, matrix_normals)
        ]
        finite = [bool(np.isfinite(x).all()) for x in x_matrix]
        if not (np.isfinite(x_scalar).all() and all(finite)):
            bad = [int(i) for i in self.scalar[~np.isfinite(x_scalar)]]
            bad += [i for i, ok in zip(self.matrix, finite) if not ok]
            raise InvalidStateError(f"plant {min(bad)} state went non-finite at slot {slot}")
        self.x_scalar, self.x_matrix = x_scalar, x_matrix


def control_performance_bound(model: PlantModel) -> float:
    """Long-run upper bound on the average certificate value,
    trace(W * noise_cov) / (1 - decrease_rate)."""
    return float(np.trace(model.lyapunov_weight @ model.noise_cov)) / (
        1.0 - model.decrease_rate
    )


def _pencil_min_eig(model: PlantModel, theta: float) -> float:
    """Smallest eigenvalue of rho*W - theta*Ac'WAc - (1-theta)*Ao'WAo."""
    w = model.lyapunov_weight
    closed = model.a_closed.T @ w @ model.a_closed
    open_ = model.a_open.T @ w @ model.a_open
    pencil = model.decrease_rate * w - theta * closed - (1.0 - theta) * open_
    scale = max(np.abs(pencil).max(), 1.0)
    if np.abs(pencil - pencil.T).max() > SYMMETRY_RTOL * scale:
        raise InfeasibleTargetError("reception-probability pencil lost symmetry")
    return float(np.linalg.eigvalsh(0.5 * (pencil + pencil.T)).min())


def required_reception_probability(model: PlantModel, tol: float = DEFAULT_LMI_TOL) -> float:
    """Minimal reception probability that keeps the certificate decreasing at
    the configured rate.

    Scalar plants use the closed form (ao^2 - rho) / (ao^2 - ac^2); matrix
    plants bisect on the mixing weight using the smallest-eigenvalue
    feasibility test. Raises :class:`InfeasibleTargetError` when even
    always-on reception (theta = 1) cannot meet the rate.
    """
    if tol <= 0:
        raise ConfigError("tolerance must be positive")
    if model.dim == 1:
        ao2 = float(model.a_open[0, 0]) ** 2
        ac2 = float(model.a_closed[0, 0]) ** 2
        rho = model.decrease_rate
        if ac2 > rho:
            raise InfeasibleTargetError(
                "closed loop cannot meet decrease rate: "
                f"a_closed^2 = {ac2:.6g} > rate {rho:.6g}"
            )
        if ao2 <= rho:
            return 0.0
        # Here ao2 > rho >= ac2, so the ratio lies in (0, 1].
        return (ao2 - rho) / (ao2 - ac2)

    if _pencil_min_eig(model, 1.0) < -tol * np.abs(model.lyapunov_weight).max():
        raise InfeasibleTargetError(
            "closed loop cannot meet decrease rate: pencil infeasible at theta = 1"
        )
    if _pencil_min_eig(model, 0.0) >= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _pencil_min_eig(model, mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    # Return the feasible end so the result satisfies the inequality.
    return hi
