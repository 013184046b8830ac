"""Node availability, bounded staleness, and the exchange of multipliers.

Nodes read each other's multipliers only through a mailbox that holds, per
ordered pair (receiver, sender), the last value shared by the sender and the
slot it was shared in. Three availability modes generate the sharing
schedule:

  * ``always-on``   every node shares every slot (synchronous limit: the
                    mailbox then holds the current multipliers),
  * ``random``      each node is available with a fixed probability; a pair
                    exchanges when both ends are available,
  * ``piggyback``   a node shares exactly on the slots it transmits.

In the random and piggyback modes a forced exchange fires whenever a pair
would otherwise exceed the staleness bound, so the bound holds by
construction rather than by assumption. Staleness of a pair during slot t is
t minus the slot of its last exchange; exchanges happen at the end of a slot
and carry the sender's post-update values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

AVAILABILITY_MODES = ("always-on", "random", "piggyback")


@dataclass(frozen=True)
class AvailabilitySchedule:
    mode: str = "always-on"
    prob: float = 1.0
    staleness_bound: int = 1

    def __post_init__(self):
        if self.mode not in AVAILABILITY_MODES:
            raise ConfigError(
                f"unknown availability mode {self.mode!r}, pick from {AVAILABILITY_MODES}"
            )
        if self.mode == "random" and not 0.0 < self.prob <= 1.0:
            raise ConfigError("random availability needs prob in (0, 1]")
        if self.staleness_bound < 1:
            raise ConfigError("staleness bound must be a positive integer")


class DualMailbox:
    """Stale multiplier copies: ``values[i, j]`` is the latest nu_{j,i} known
    to receiver i, ``slots[i, j]`` the slot sender j shared it in. Row i is
    what node i knows of the others; the diagonal is never written and stays
    zero.

    Initial values are zero at slot zero, matching the all-zero multiplier
    initialization that every node knows without communicating.
    """

    def __init__(self, count: int):
        self.count = count
        self.values = np.zeros((count, count))
        self.slots = np.zeros((count, count), dtype=int)


@dataclass(eq=False)
class AvailabilityDecision:
    """Who can participate and who shares this slot. ``available[j]`` marks
    node j capable of sending and receiving (drives the subgradient mask);
    None, outside random mode, marks every node capable. ``exchange[i, j]``
    marks mailbox (i <- j) refreshes, forced ones included."""

    available: np.ndarray | None
    exchange: np.ndarray


@functools.cache
def _pair_mask(count: int) -> np.ndarray:
    """Read-only mask of every off-diagonal pair."""
    pairs = ~np.eye(count, dtype=bool)
    pairs.flags.writeable = False
    return pairs


def advance_availability(
    schedule: AvailabilitySchedule,
    t: int,
    uniforms,
    transmit_flags,
    mailbox: DualMailbox,
) -> AvailabilityDecision:
    """Availability sets for slot t, with forced exchanges injected for any
    pair that would otherwise exceed the staleness bound next slot.
    ``uniforms`` holds one uniform draw per node for this slot, read only in
    random mode (node i is up when its draw is below ``prob``).

    Only the random mode models nodes going down; always-on and piggyback
    nodes stay capable every slot (``available`` is None). Piggyback
    restricts when duals are shared (riding on measurement packets), not
    what a node can compute. Always-on pairs share every slot, so none is
    ever forced and every slot exchanges the same read-only pair mask.
    """
    pairs = _pair_mask(mailbox.count)
    if schedule.mode == "always-on":
        return AvailabilityDecision(available=None, exchange=pairs)
    # Next slot a pair's staleness is (t + 1) - last_slot; force a refresh
    # wherever that would exceed the bound.
    forced = (t + 1 - mailbox.slots) > schedule.staleness_bound
    if schedule.mode == "random":
        capable = np.asarray(uniforms) < schedule.prob
        exchange = ((capable[:, None] & capable) | forced) & pairs
        available = capable | np.logical_or.reduce(forced, axis=0)
    else:
        # The sender's packet carries its duals, everyone listens.
        exchange = (np.asarray(transmit_flags, dtype=bool) | forced) & pairs
        available = None
    return AvailabilityDecision(available=available, exchange=exchange)


def exchange_duals(
    mailbox: DualMailbox,
    decision: AvailabilityDecision,
    nu: np.ndarray,
    t: int,
) -> None:
    """Refresh mailbox entries for every exchanging pair with the senders'
    current multipliers (receiver i gets nu[j, i] from sender j), stamped
    with this slot. Non-exchanging pairs keep their old snapshot untouched."""
    exchange = decision.exchange
    np.copyto(mailbox.values, nu.T, where=exchange)
    mailbox.slots[exchange] = t
