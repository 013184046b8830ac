"""Decentralized random-access scheduling for wireless control loops whose
sensors run on harvested energy.

The package converts per-plant Lyapunov decrease-rate targets into required
packet-reception probabilities, runs a per-node stochastic primal-dual
scheduling policy over a shared collision channel, and simulates the coupled
plant/channel/battery system with full seed determinism.
"""

from .comm import ChannelConfig, DecodingCurve, draw_channels, resolve_slot
from .control import (
    PlantBank,
    PlantModel,
    control_performance_bound,
    required_reception_probability,
)
from .coordination import AvailabilitySchedule, DualMailbox
from .energy import BatteryState, HarvestConfig, draw_harvest, step_batteries
from .errors import (
    ConfigError,
    EnergyCausalityError,
    InfeasibleTargetError,
    InvalidStateError,
    InvariantBreach,
    InvariantViolation,
)
from .scheduler import (
    DualState,
    SchedulerParams,
    apply_dual_step,
    compute_s,
    compute_y,
    compute_z,
    dual_subgradients,
    init_duals,
)
from .sim import SimConfig, SimulationAborted, Summary, TelemetryRecord, run, summarize

__version__ = "0.1.0"

__all__ = [
    "AvailabilitySchedule",
    "BatteryState",
    "ChannelConfig",
    "ConfigError",
    "DecodingCurve",
    "DualMailbox",
    "DualState",
    "EnergyCausalityError",
    "HarvestConfig",
    "InfeasibleTargetError",
    "InvalidStateError",
    "InvariantBreach",
    "InvariantViolation",
    "PlantBank",
    "PlantModel",
    "SchedulerParams",
    "SimConfig",
    "SimulationAborted",
    "Summary",
    "TelemetryRecord",
    "apply_dual_step",
    "compute_s",
    "compute_y",
    "compute_z",
    "control_performance_bound",
    "draw_channels",
    "dual_subgradients",
    "draw_harvest",
    "init_duals",
    "required_reception_probability",
    "resolve_slot",
    "run",
    "step_batteries",
    "summarize",
]
