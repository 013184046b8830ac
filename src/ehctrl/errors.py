"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration failed to parse or violates a hard invariant."""


class InfeasibleTargetError(ValueError):
    """The closed loop cannot meet the requested decrease rate."""


class EnergyCausalityError(RuntimeError):
    """A node tried to spend more energy than its battery holds."""

    def __init__(self, node: int, spend: float, charge: float, slot: int | None = None):
        self.node = node
        self.spend = spend
        self.charge = charge
        self.slot = slot
        where = f" at slot {slot}" if slot is not None else ""
        super().__init__(
            f"energy causality violated{where}: node {node} "
            f"spends {spend:.12g} with charge {charge:.12g}"
        )


class InvalidStateError(RuntimeError):
    """Simulation state went non-finite; the run is corrupted."""


class InvariantViolation(RuntimeError):
    """A runtime invariant of the simulation broke. ``kind`` names it:
    ``"mirror"`` (battery/multiplier mirror identity) or ``"dual_bound"``
    (multiplier cap)."""

    def __init__(self, message: str, kind: str, slot: int | None = None):
        self.kind = kind
        self.slot = slot
        where = f" at slot {slot}" if slot is not None else ""
        super().__init__(f"invariant violated{where}: {message}")
