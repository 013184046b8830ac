"""Shared fixtures and independent oracles used across the test suite.

The oracles deliberately avoid the code paths they check: the reception
requirement oracle scans a dense grid of mixing weights with a direct
eigenvalue test, and the one-dimensional primal oracles brute-force their
objectives on a grid.
"""

import math

import numpy as np
import pytest
from hypothesis import settings

from ehctrl.control import PlantModel
from ehctrl.scheduler import SchedulerParams

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def grid_required_probability(model: PlantModel, step: float = 1e-3) -> float:
    """Smallest mixing weight on a dense grid for which the decrease pencil
    is positive semidefinite; inf if none is. The pencils of the whole grid
    go through one stacked ``eigvalsh``."""
    w = model.lyapunov_weight
    closed = model.a_closed.T @ w @ model.a_closed
    open_ = model.a_open.T @ w @ model.a_open
    theta = np.arange(0.0, 1.0 + step / 2, step)[:, None, None]
    pencil = model.decrease_rate * w - theta * closed - (1.0 - theta) * open_
    psd = np.linalg.eigvalsh(0.5 * (pencil + pencil.swapaxes(1, 2))).min(axis=1) >= 0.0
    return float(theta[psd.argmax(), 0, 0]) if psd.any() else math.inf


def grid_argmin(fn, lo: float, hi: float, step: float = 1e-3) -> float:
    """Brute-force argmin on [lo, hi] of a scalar function that ``fn``
    evaluates over the whole grid array at once."""
    grid = np.append(np.arange(lo, hi, step), hi)
    return float(grid[int(np.argmin(fn(grid)))])


def z_objective(c: float):
    return lambda z: z * (z - c)


def s_own_objective(phi: float, nu: float):
    return lambda s: -phi * np.log(s) + nu * s


def s_cross_objective(phi: float, nu: float):
    return lambda s: -phi * np.log(1.0 - s) - nu * s


@pytest.fixture
def two_node_params() -> SchedulerParams:
    """Scheduler parameters of the shipped two-plant experiment."""
    return SchedulerParams(
        epsilon=1.0,
        nu_bar=19.0,
        y_bar=25.0,
        p=np.array([0.3453, 0.2769]),
        collision_prob=0.25,
    )
