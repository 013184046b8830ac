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

from .errors import ConfigError, InfeasibleTargetError

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
    """The plants of one run, stacked per state dimension d (scalar plants
    are d = 1): ``index[g]`` lists the k plants of stack g, whose states are
    the rows of one (T + 1, k, d) buffer (:meth:`history`). Nothing a node
    decides reads a plant state, so plants advance a block of slots at a
    time (:meth:`replay`) once the block's receptions are known; a slot is
    ``where(received, A_c, A_o) @ x + noise``, on Python floats for the
    scalar stack and as a stacked matmul for each matrix stack. Stacks are
    never padded to a common d: a padded matmul runs another kernel and
    changes the last bits."""

    def __init__(self, models: Sequence[PlantModel], states: Sequence[np.ndarray]):
        self.models = tuple(models)
        dims = np.array([m.dim for m in self.models])
        self.index = [np.flatnonzero(dims == d) for d in sorted(set(dims.tolist()))]

        def stack(values):
            return [np.array([values[i] for i in idx], dtype=float) for idx in self.index]

        self._a_open = stack([m.a_open for m in self.models])
        self._a_closed = stack([m.a_closed for m in self.models])
        self._weight = stack([m.lyapunov_weight for m in self.models])
        self._factor = stack([m.noise_factor for m in self.models])
        self._initial = stack(states)
        self._history: list[np.ndarray] = []

    def draw_noise(self, rngs: Sequence[np.random.Generator], size: int) -> list[np.ndarray]:
        """``size`` consecutive slots of process noise ``noise_factor @ normal``
        from each plant's own stream, one (size, k, d, 1) array per stack."""
        return [
            factor @ np.stack(
                [rngs[i].standard_normal((size, factor.shape[1])) for i in idx], axis=1
            )[..., None]
            for idx, factor in zip(self.index, self._factor)
        ]

    def history(self, horizon: int) -> list[np.ndarray]:
        """Per-plant (horizon + 1, dim) state buffers, views of one
        (horizon + 1, k, d) buffer per stack: row 0 the initial state, row
        t + 1 the state after slot t (:meth:`replay`)."""
        self._history = [np.zeros((horizon + 1, *x.shape)) for x in self._initial]
        for buffer, x in zip(self._history, self._initial):
            buffer[0] = x
        views = {i: buffer[:, k] for idx, buffer in zip(self.index, self._history)
                 for k, i in enumerate(idx)}
        return [views[i] for i in range(len(self.models))]

    def replay(self, received: np.ndarray, noise: list[np.ndarray], start: int) -> None:
        """Advance every plant from its history row ``start`` through one
        slot per row of ``received`` (slots, plants): closed-loop dynamics
        where the packet arrived, open loop otherwise, plus that slot's row
        of ``noise`` (:meth:`draw_noise`). The state after slot t goes into
        history row t + 1.

        The scalar stack steps each plant on Python floats as ``a * x + 0.0
        + w``, the bytes of a 1x1 matmul, which sums ``0.0 + a * x``; matrix
        stacks take the stacked matmul."""
        for idx, a_open, a_closed, buffer, w in zip(
            self.index, self._a_open, self._a_closed, self._history, noise
        ):
            rows = buffer[start + 1:start + 1 + len(received)]
            if buffer.shape[2] == 1:
                for k, (x, a_o, a_c, arrived, drift) in enumerate(zip(
                    buffer[start, :, 0].tolist(), a_open[:, 0, 0].tolist(),
                    a_closed[:, 0, 0].tolist(), received[:, idx].T.tolist(),
                    w[:, :, 0, 0].T.tolist(),
                )):
                    states = []
                    for r, n in zip(arrived, drift):
                        x = (a_c if r else a_o) * x + 0.0 + n
                        states.append(x)
                    rows[:, k, 0] = states
            else:
                a = np.where(received[:, idx, None, None], a_closed, a_open)
                x = buffer[start][..., None]
                # A diverging plant overflows here; the run reports it.
                with np.errstate(over="ignore", invalid="ignore"):
                    for k in range(len(a)):
                        x = a[k] @ x + w[k]
                        rows[k] = x[..., 0]

    def nonfinite(self, start: int, stop: int) -> np.ndarray:
        """(stop - start, plants) flags of the states that :meth:`replay`
        left non-finite after each slot from ``start`` on: history rows
        ``start + 1`` to ``stop``."""
        bad = np.empty((stop - start, len(self.models)), dtype=bool)
        for idx, buffer in zip(self.index, self._history):
            bad[:, idx] = ~np.isfinite(buffer[start + 1:stop + 1]).all(axis=2)
        return bad

    def certificates(self, rows: int) -> np.ndarray:
        """Quadratic certificate values x' W x (>= 0) of the first ``rows``
        saved states, shape (rows, plants)."""
        values = np.empty((rows, len(self.models)))
        for idx, weight, buffer in zip(self.index, self._weight, self._history):
            x = buffer[:rows]
            with np.errstate(over="ignore", invalid="ignore"):
                values[:, idx] = (x[:, :, None, :] @ weight @ x[..., None])[..., 0, 0]
        return values


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
    if not tol > 0:  # NaN included
        raise ConfigError(f"tolerance must be positive, got {tol!r}")
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
