"""Stochastic Activity Networks: formalism, simulator, and solvers.

This package is the repository's replacement for the Möbius modeling
environment the paper used: places, timed and instantaneous
activities with cases, input/output gates, shared-state
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

from .._lazy import lazy_exports
from .activities import Activity, Arc, Case, InstantaneousActivity, TimedActivity
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
from .places import Place
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
from .statistics import (
    ConfidenceInterval,
    RunningStatistics,
    confidence_interval,
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
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".dot": ("to_dot",),
    ".statespace": ("StateSpace", "StateSpaceGenerator", "SteadyStateSolution"),
    ".transient": ("TransientSolver", "TransientSolution"),
})
