"""Exception types shared across the package."""

# The InvariantBreach kinds, in the order of a run's ``violations`` counters.
BREACH_KINDS = ("causality", "mirror", "dual_bound", "nonfinite")

# The message of each breach kind, formatted from the breach's fields.
_MESSAGES = {
    "causality": "energy causality violated at slot {slot}: node {node} "
                 "spends {observed:.12g} with charge {expected:.12g}",
    "nonfinite": "plant {node} state went non-finite at slot {slot}",
    "dual_bound": "invariant violated at slot {slot}: multiplier bound exceeded "
                  "for node {node}: nu = {observed}, cap = {expected}",
    "mirror": "invariant violated at slot {slot}: battery mirror diverged "
              "for node {node}: beta = {observed!r}, expected {expected!r}",
}


class ConfigError(ValueError):
    """A configuration failed to parse or violates a hard invariant."""


class InfeasibleTargetError(ValueError):
    """The closed loop cannot meet the requested decrease rate."""


class InvariantBreach(RuntimeError):
    """A runtime invariant broke in ``slot`` at ``node`` (the plant, for
    ``nonfinite``). ``kind``, the class's by default, names the invariant
    and keys the message and the ``violations`` counters. ``observed`` and
    ``expected`` disagreed: the spend and the charge (``causality``), the
    node's ``nu`` row and its cap row (``dual_bound``), ``beta`` and its
    mirror value (``mirror``); ``nonfinite`` carries neither. ``args`` holds
    the five fields, so a breach pickles (to and from sweep workers) as is."""

    kind: str

    def __init__(self, slot: int, node: int, observed=None, expected=None, kind=None):
        super().__init__(slot, node, observed, expected, kind or self.kind)
        self.slot, self.node, self.observed, self.expected, self.kind = self.args

    def __str__(self) -> str:
        return _MESSAGES[self.kind].format(**vars(self))


class EnergyCausalityError(InvariantBreach):
    """A node tried to spend more energy than its battery holds."""

    kind = "causality"


class InvalidStateError(InvariantBreach):
    """A plant state went non-finite; the run is corrupted."""

    kind = "nonfinite"


class InvariantViolation(InvariantBreach):
    """A dual-side invariant broke: ``kind`` is ``"mirror"`` (battery/
    multiplier mirror identity) or ``"dual_bound"`` (multiplier cap)."""
