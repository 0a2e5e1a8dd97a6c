"""Failure process machinery: arrival processes, synthetic traces and
correlation arithmetic."""

from .correlation import CorrelationSpec, window_occupancy
from .processes import BurstProcess, ModulatedPoissonProcess, PoissonProcess
from .traces import FailureRecord, clustering_coefficient, estimate_mtbf, generate_trace

__all__ = [
    "PoissonProcess",
    "ModulatedPoissonProcess",
    "BurstProcess",
    "CorrelationSpec",
    "window_occupancy",
    "FailureRecord",
    "generate_trace",
    "estimate_mtbf",
    "clustering_coefficient",
]
