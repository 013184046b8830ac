"""Shared fixtures and independent oracles used across the test suite.

The oracles deliberately avoid the code paths they check: the reception
requirement oracle scans a dense grid of mixing weights with a direct
eigenvalue test, the one-dimensional primal oracles brute-force their
objectives on a grid, and the multiplier copies a run's z step read are
rebuilt from its record instead of taken from its mailbox.
"""

import math

import numpy as np
import pytest
from hypothesis import settings

from ehctrl.control import PlantModel
from ehctrl.scheduler import SchedulerParams, compute_z

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


def current_copies(nu: np.ndarray) -> np.ndarray:
    """Per slot, every node's copies of the other nodes' current
    multipliers: ``nu[t].T`` with a zero diagonal (the synchronous limit)."""
    copies = nu.transpose(0, 2, 1).copy()
    nodes = np.arange(nu.shape[1])
    copies[:, nodes, nodes] = 0.0
    return copies


def piggyback_copies(record, bound: int) -> np.ndarray:
    """Per slot, the mailbox a piggyback run reads, rebuilt from its record:
    at the end of slot t, sender j refreshes receiver i's copy with
    ``nu[t + 1][j, i]`` if j transmitted, or if the copy would otherwise be
    more than ``bound`` slots old in slot t + 1."""
    slots, count = record.z.shape
    pairs = ~np.eye(count, dtype=bool)
    values, stamps = np.zeros((count, count)), np.zeros((count, count), dtype=int)
    copies = np.empty((slots, count, count))
    for t in range(slots):
        copies[t] = values
        if t + 1 < slots:  # the last refresh is read by no recorded slot
            refresh = (record.transmitted[t] | (t + 1 - stamps > bound)) & pairs
            values[refresh] = record.nu[t + 1].T[refresh]
            stamps[refresh] = t
    return copies


def z_mismatches(record, params: SchedulerParams, copies: np.ndarray) -> list[int]:
    """Slots whose recorded z differs in any bit from ``compute_z`` of the
    slot's start duals (record row t) and the copies ``copies[t]``."""
    return [
        t for t in range(record.horizon)
        if record.z[t].tobytes() != compute_z(
            record.nu[t], record.beta[t], copies[t], record.q[t], params
        ).tobytes()
    ]


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
