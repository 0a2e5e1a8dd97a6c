"""The paper's model: coordinated checkpointing at supercomputer scale.

Public API::

    from repro.core import ModelParameters, SimulationPlan, simulate

    params = ModelParameters(n_processors=131072, mttf_node=1 * YEAR)
    result = simulate(params, SimulationPlan(replications=5), seed=42)
    print(result.summary())
"""

from .completion import (
    CompletionResult,
    CompletionStudy,
    completion_study,
    simulate_completion,
)
from .ledger import LedgerCounters, WorkLedger
from .parameters import (
    DAY,
    GB,
    HOUR,
    MB,
    MINUTE,
    YEAR,
    CoordinationMode,
    ModelParameters,
)
from .simulation import (
    SimulationPlan,
    SimulationResult,
    run_single,
    simulate,
)
from .system import CheckpointSystem, build_system

__all__ = [
    "ModelParameters",
    "CoordinationMode",
    "MINUTE",
    "HOUR",
    "DAY",
    "YEAR",
    "MB",
    "GB",
    "WorkLedger",
    "LedgerCounters",
    "CheckpointSystem",
    "build_system",
    "SimulationPlan",
    "SimulationResult",
    "simulate",
    "run_single",
    "CompletionResult",
    "CompletionStudy",
    "simulate_completion",
    "completion_study",
]
