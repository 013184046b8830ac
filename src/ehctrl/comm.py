"""Shared-medium communication model: per-link block fading, a decoding curve
mapping channel state to decode probability, and pairwise collision events.

The marginal reception probability of node i when every node j transmits
with probability z_j is

    q_i * z_i * prod_{j != i} (1 - q_c * z_j)

with q_c the per-interfering-pair collision probability
(:func:`ehctrl.sim.per_slot_reception` evaluates it for every node and
slot). Collision events are drawn independently per ordered pair; only the
marginals above are observable in the run statistics. Every function takes
and returns arrays over all nodes: the slot loop calls them once per slot
(:func:`resolve_slot`) or once per block of slots (:func:`draw_channels`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

DECODE_KINDS = ("exp", "logistic")


@dataclass(frozen=True)
class DecodingCurve:
    """Continuous, strictly increasing map from channel state to [0, 1].

    ``exp``:      q(h) = 1 - exp(-rate * h)    (zero at h = 0, saturates at 1)
    ``logistic``: q(h) = 1 / (1 + exp(-rate * (h - midpoint)))
    """

    kind: str = "exp"
    rate: float = 1.0
    midpoint: float = 0.0

    def __post_init__(self):
        if self.kind not in DECODE_KINDS:
            raise ConfigError(f"unknown decoding curve {self.kind!r}, pick from {DECODE_KINDS}")
        if self.rate <= 0:
            raise ConfigError("decoding curve rate must be positive to stay increasing")

    def __call__(self, h: np.ndarray) -> np.ndarray:
        if self.kind == "exp":
            return 1.0 - np.exp(-self.rate * h)
        return 1.0 / (1.0 + np.exp(-self.rate * (h - self.midpoint)))


#: Default decoding curve: an S-shaped ramp centered near the lower quartile
#: of the fading distribution. Calibrated so the shipped two-plant experiment
#: lands on the reported reception/energy operating point.
DEFAULT_DECODE = DecodingCurve(kind="logistic", rate=3.0, midpoint=1.5)


@dataclass(frozen=True)
class ChannelConfig:
    fading_mean: float = 2.0
    decode: DecodingCurve = DEFAULT_DECODE
    collision_prob: float = 0.25

    def __post_init__(self):
        if self.fading_mean <= 0:
            raise ConfigError("fading_mean must be positive")
        if not 0.0 <= self.collision_prob <= 1.0:
            raise ConfigError("collision_prob must lie in [0, 1]")


def draw_channels(config: ChannelConfig, rngs, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw a (size, nodes) block of fading states (i.i.d. exponential with
    the configured mean) and their decode probabilities. ``rngs`` holds one
    generator per node; each node's slots are consecutive draws of its
    generator."""
    h = np.stack([r.exponential(config.fading_mean, size) for r in rngs], axis=-1)
    return h, config.decode(h)


class BufferedUniforms:
    """One generator's uniform stream, drawn ``chunk`` values at a time into
    a float64 buffer. ``random(n)`` returns the next n values: the same
    sequence as calling ``rng.random(n)`` directly, because for PCG64
    ``random(a)`` followed by ``random(b)`` equals ``random(a + b)``."""

    def __init__(self, rng: np.random.Generator, chunk: int):
        self._rng = rng
        self._chunk = chunk
        self._buffer = np.empty(0)
        self._next = 0

    def random(self, n: int) -> np.ndarray:
        start, stop = self._next, self._next + n
        if stop > self._buffer.size:
            fresh = self._rng.random(max(n, self._chunk))
            self._buffer = np.concatenate((self._buffer[start:], fresh))
            start, stop = 0, n
        self._next = stop
        return self._buffer[start:stop]


def resolve_slot(
    config: ChannelConfig, transmitted: np.ndarray, q: np.ndarray, rngs
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve one slot's receptions given who transmitted; returns the
    per-node ``(received, collided)`` flags.

    Each transmitting node i draws, from its own stream, one uniform per
    other transmitter (independent Bernoulli(q_c) collision events in
    ascending order) and then one decode uniform, all in a single
    ``random(n)`` call on ``rngs[i]`` (a generator or a
    :class:`BufferedUniforms`). The decode draw happens whether or not the
    packet collided, so collision and decoding stay independent.
    ``received[i]`` is true iff node i transmitted, suffered no collision and
    its packet decoded; ``collided[i]`` needs another transmitter.
    """
    received = np.zeros(transmitted.size, dtype=bool)
    collided = np.zeros(transmitted.size, dtype=bool)
    senders = transmitted.nonzero()[0].tolist()
    for i in senders:
        *collision, decode = rngs[i].random(len(senders)).tolist()
        hit = min(collision, default=math.inf) < config.collision_prob
        collided[i] = hit
        received[i] = not hit and decode < q[i]
    return received, collided
