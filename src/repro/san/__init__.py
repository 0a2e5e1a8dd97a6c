"""Stochastic Activity Networks: formalism, simulator, and solvers.

This package is the repository's replacement for the Möbius modeling
environment the paper used: places (discrete and extended), timed and
instantaneous activities with cases, input/output gates, shared-state
composition, rate/impulse reward variables, a next-event simulation
executive with transient discard, replication statistics, and an exact
CTMC solver for small all-exponential models.

Typical usage::

    from repro.san import (
        SANModel, TimedActivity, InstantaneousActivity, Arc, Case,
        InputGate, OutputGate, Exponential, Deterministic,
        Simulator, RewardVariable,
    )
"""

from .activities import Activity, Arc, Case, InstantaneousActivity, TimedActivity
from .dot import to_dot
from .distributions import (
    EULER_MASCHERONI,
    Deterministic,
    Distribution,
    Erlang,
    Exponential,
    Hyperexponential,
    LogNormal,
    MaxOfExponentials,
    Uniform,
    Weibull,
    harmonic_number,
)
from .errors import (
    DistributionError,
    InvariantViolationError,
    LivelockError,
    ModelDefinitionError,
    SANError,
    SimulationError,
    StateSpaceError,
    WallClockExceededError,
)
from .gates import InputGate, OutputGate
from .model import ReplayGroup, SANModel
from .places import ExtendedPlace, Place
from .profiling import KernelStats
from .rewards import RewardResult, RewardVariable
from .rng import StreamRegistry
from .simulator import (
    KERNELS,
    Invariant,
    SimulationOutput,
    SimulationState,
    Simulator,
    monotone_nondecreasing,
    non_negative_markings,
)
from .statespace import StateSpace, StateSpaceGenerator, SteadyStateSolution
from .transient import TransientSolution, TransientSolver
from .statistics import (
    ConfidenceInterval,
    RunningStatistics,
    confidence_interval,
    replicate,
    standard_error_of,
    t_critical,
)

__all__ = [
    "Activity",
    "Arc",
    "Case",
    "InstantaneousActivity",
    "TimedActivity",
    "Distribution",
    "Deterministic",
    "Exponential",
    "Uniform",
    "Erlang",
    "Weibull",
    "LogNormal",
    "Hyperexponential",
    "MaxOfExponentials",
    "harmonic_number",
    "EULER_MASCHERONI",
    "SANError",
    "ModelDefinitionError",
    "SimulationError",
    "StateSpaceError",
    "DistributionError",
    "LivelockError",
    "WallClockExceededError",
    "InvariantViolationError",
    "InputGate",
    "OutputGate",
    "SANModel",
    "ReplayGroup",
    "to_dot",
    "Place",
    "ExtendedPlace",
    "RewardVariable",
    "RewardResult",
    "StreamRegistry",
    "Simulator",
    "SimulationState",
    "SimulationOutput",
    "KernelStats",
    "KERNELS",
    "Invariant",
    "non_negative_markings",
    "monotone_nondecreasing",
    "StateSpace",
    "StateSpaceGenerator",
    "SteadyStateSolution",
    "TransientSolver",
    "TransientSolution",
    "ConfidenceInterval",
    "RunningStatistics",
    "confidence_interval",
    "t_critical",
    "standard_error_of",
    "replicate",
]
