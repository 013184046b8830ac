"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration failed to parse or violates a hard invariant."""


class InfeasibleTargetError(ValueError):
    """The closed loop cannot meet the requested decrease rate."""


class InvariantBreach(RuntimeError):
    """A runtime invariant of the simulation broke; ``kind`` names which one
    and keys the run's ``violations`` counters."""

    kind: str


class EnergyCausalityError(InvariantBreach):
    """A node tried to spend more energy than its battery holds."""

    kind = "causality"

    def __init__(self, node: int, spend: float, charge: float, slot: int):
        self.node = node
        self.spend = spend
        self.charge = charge
        self.slot = slot
        super().__init__(
            f"energy causality violated at slot {slot}: node {node} "
            f"spends {spend:.12g} with charge {charge:.12g}"
        )


class InvalidStateError(InvariantBreach):
    """Simulation state went non-finite; the run is corrupted."""

    kind = "nonfinite"


class InvariantViolation(InvariantBreach):
    """A dual-side invariant broke: ``kind`` is ``"mirror"`` (battery/
    multiplier mirror identity) or ``"dual_bound"`` (multiplier cap)."""

    def __init__(self, message: str, kind: str, slot: int):
        self.kind = kind
        self.slot = slot
        super().__init__(f"invariant violated at slot {slot}: {message}")
