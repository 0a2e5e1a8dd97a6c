"""Failure process machinery: arrival processes, synthetic traces and
correlation arithmetic."""

from .correlation import CorrelationSpec
from .processes import BurstProcess, ModulatedPoissonProcess, PoissonProcess
from .traces import FailureRecord, clustering_coefficient, generate_trace

__all__ = [
    "PoissonProcess",
    "ModulatedPoissonProcess",
    "BurstProcess",
    "CorrelationSpec",
    "FailureRecord",
    "generate_trace",
    "clustering_coefficient",
]
