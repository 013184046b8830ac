"""Energy-harvesting arrivals and finite-battery dynamics.

The battery update is b' = clamp(b - spend + harvested, 0, capacity), applied
to every node's battery at once. Spending more than the current charge is a
hard error, never a clamp: under a properly sized configuration the scheduler
provably never requests it, so a violation means the sizing rule was broken
somewhere. The run raises :class:`~ehctrl.errors.EnergyCausalityError` for
it (see :mod:`ehctrl.sim`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

HARVEST_DISTRIBUTIONS = ("bernoulli", "deterministic", "uniform")

# Spend/charge comparisons get this much float grace; real violations are
# orders of magnitude larger than accumulated rounding at battery scale.
CAUSALITY_ATOL = 1e-12


@dataclass(frozen=True)
class HarvestConfig:
    """Stationary non-negative energy arrivals with the given per-slot mean.

    ``bernoulli`` draws one full unit with probability ``mean`` (requires
    mean <= 1), ``deterministic`` always yields ``mean``, ``uniform`` draws
    from [0, 2 * mean].
    """

    mean: float
    distribution: str = "bernoulli"

    def __post_init__(self):
        if self.mean <= 0:
            raise ConfigError("harvest mean must be positive")
        if self.distribution not in HARVEST_DISTRIBUTIONS:
            raise ConfigError(
                f"unknown harvest distribution {self.distribution!r}, "
                f"pick from {HARVEST_DISTRIBUTIONS}"
            )
        if self.distribution == "bernoulli" and self.mean > 1.0:
            raise ConfigError("bernoulli harvest needs mean <= 1")


def draw_harvest(config: HarvestConfig, rng: np.random.Generator, size: int) -> np.ndarray:
    """Sample ``size`` consecutive slots of harvested energy (non-negative,
    long-run mean equal to the configured mean) from one node's stream."""
    if config.distribution == "bernoulli":
        return np.where(rng.random(size) < config.mean, 1.0, 0.0)
    if config.distribution == "deterministic":
        return np.full(size, config.mean)
    return rng.uniform(0.0, 2.0 * config.mean, size)


def step_batteries(
    charge: np.ndarray,
    capacity: np.ndarray,
    spend: np.ndarray,
    harvested: np.ndarray,
) -> np.ndarray:
    """Advance every battery by one slot. ``harvested`` must be
    non-negative (:func:`draw_harvest` output is); per-slot energy causality
    (``spend`` at most the charge, within ``CAUSALITY_ATOL``) is checked on
    the recorded rows by :func:`ehctrl.sim.run`."""
    return np.minimum(np.maximum(charge - spend + harvested, 0.0), capacity)
