"""Shared-medium communication model: per-link block fading, a decoding curve
mapping channel state to decode probability, and pairwise collision events.

The marginal reception probability of node i when every node j transmits
with probability z_j is

    q_i * z_i * prod_{j != i} (1 - q_c * z_j)

with q_c the per-interfering-pair collision probability. Collision events
are drawn independently per ordered pair; only the marginals above are
observable in the run statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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

    def __call__(self, h):
        h = np.asarray(h, dtype=float)
        if self.kind == "exp":
            q = 1.0 - np.exp(-self.rate * h)
        else:
            q = 1.0 / (1.0 + np.exp(-self.rate * (h - self.midpoint)))
        return q if q.ndim else float(q)


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


@dataclass(eq=False)
class SlotOutcome:
    """Per-node reception record for one slot.

    ``received[i]`` is true iff node i transmitted, suffered no collision,
    and its packet decoded. ``collided[i]`` can only be true when some other
    node transmitted in the same slot.
    """

    q: np.ndarray
    transmitted: np.ndarray
    collided: np.ndarray
    decoded: np.ndarray
    received: np.ndarray


def _per_node_rngs(rng, count: int) -> Sequence[np.random.Generator]:
    if isinstance(rng, np.random.Generator):
        return [rng] * count
    rngs = list(rng)
    if len(rngs) != count:
        raise ConfigError(f"expected {count} random streams, got {len(rngs)}")
    return rngs


def draw_channels(
    config: ChannelConfig, count: int, rng, size: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one fading state per node (i.i.d. exponential with the configured
    mean) and its decode probability; with ``size``, a (size, count) block of
    consecutive slots. ``rng`` is a single generator or one generator per
    node; each node's slots are consecutive draws of its generator."""
    if count < 1:
        raise ConfigError("need at least one node")
    rngs = _per_node_rngs(rng, count)
    h = np.stack([r.exponential(config.fading_mean, size) for r in rngs], axis=-1)
    return h, np.asarray(config.decode(h))


def resolve_slot(
    config: ChannelConfig,
    transmitted,
    q,
    rng,
) -> SlotOutcome:
    """Resolve one slot's receptions given who transmitted.

    Each transmitting node i draws, from its own stream, one uniform per
    other transmitter (independent Bernoulli(q_c) collision events in
    ascending order) and then one decode uniform, all in a single call. The
    decode draw happens whether or not the packet collided, so collision and
    decoding stay independent.
    """
    transmitted = np.asarray(transmitted, dtype=bool)
    q = np.asarray(q, dtype=float)
    if transmitted.shape != q.shape:
        raise ConfigError("transmitted and q must have equal length")
    count = transmitted.size
    rngs = _per_node_rngs(rng, count)
    collided = np.zeros(count, dtype=bool)
    decoded = np.zeros(count, dtype=bool)
    senders = np.flatnonzero(transmitted).tolist()
    for i in senders:
        *collision, decode = rngs[i].random(len(senders)).tolist()
        collided[i] = min(collision, default=math.inf) < config.collision_prob
        decoded[i] = decode < q[i]
    received = transmitted & ~collided & decoded
    return SlotOutcome(
        q=q,
        transmitted=transmitted,
        collided=collided,
        decoded=decoded,
        received=received,
    )


def reception_probability(z, q, collision_prob: float, i: int) -> float:
    """Analytic marginal reception probability of node i for transmit
    probabilities ``z`` and decode probabilities ``q``."""
    z = np.asarray(z, dtype=float)
    q = np.asarray(q, dtype=float)
    others = math.prod(
        1.0 - collision_prob * z[j] for j in range(z.size) if j != i
    )
    return float(q[i] * z[i] * others)
