"""Shared-medium communication model: per-link block fading, a decoding curve
mapping channel state to decode probability, and pairwise collision events.

The marginal reception probability of node i when every node j transmits
with probability z_j is

    q_i * z_i * prod_{j != i} (1 - q_c * z_j)

with q_c the per-interfering-pair collision probability
(:func:`ehctrl.sim.per_slot_reception` evaluates it for every node and
slot). The policy prices collisions at the rate the channel draws them, so
q_c has one home, ``SchedulerParams.collision_prob``. Collision events are
drawn independently per ordered pair; only the marginals above are
observable in the run statistics. Nothing a node decides depends on which
packets were decoded, so both functions work on a block of slots at once:
:func:`draw_channels` before the block runs and :func:`resolve_chunk` after
it, on the block's recorded transmissions.
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

    def __post_init__(self):
        if self.fading_mean <= 0:
            raise ConfigError("fading_mean must be positive")


def draw_channels(config: ChannelConfig, rngs, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw a (size, nodes) block of fading states (i.i.d. exponential with
    the configured mean) and their decode probabilities. ``rngs`` holds one
    generator per node; each node's slots are consecutive draws of its
    generator."""
    h = np.stack([r.exponential(config.fading_mean, size) for r in rngs], axis=-1)
    return h, config.decode(h)


def resolve_chunk(
    collision_prob: float, transmitted: np.ndarray, q: np.ndarray, rngs
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve the receptions of a block of slots given who transmitted in
    each; ``transmitted`` and ``q`` are (slots, nodes) rows, and so are the
    returned ``(received, collided)`` flags. ``collision_prob`` is q_c.

    In a slot with n transmitters, each transmitting node i takes n uniforms
    from its own stream ``rngs[i]``: one per other transmitter (independent
    Bernoulli(q_c) collision events in ascending order), then its decode
    uniform, drawn whether or not the packet collided so that collision and
    decoding stay independent. A node draws the uniforms of all its transmit
    slots in one ``random`` call: for PCG64 ``random(a)`` followed by
    ``random(b)`` equals ``random(a + b)``, so these are the values of one
    ``random(n)`` call per transmit slot. ``received`` is true iff the node
    transmitted, suffered no collision and its packet decoded; ``collided``
    needs another transmitter.
    """
    received = np.zeros(transmitted.shape, dtype=bool)
    collided = np.zeros(transmitted.shape, dtype=bool)
    senders = transmitted.T  # node-major, so each node's draws are contiguous
    count = np.count_nonzero(transmitted, axis=1)
    totals = np.where(senders, count, 0).sum(axis=1).tolist()
    if not any(totals):
        return received, collided
    draws = np.concatenate([rng.random(n) for rng, n in zip(rngs, totals) if n])
    # One window of draws per (node, transmit slot); its last is the decode.
    sizes = np.broadcast_to(count, senders.shape)[senders]
    last = np.cumsum(sizes) - 1
    decode = draws[last]
    draws[last] = math.inf
    hit = np.minimum.reduceat(draws, last + 1 - sizes) < collision_prob
    collided.T[senders] = hit
    received.T[senders] = ~hit & (decode < q.T[senders])
    return received, collided
