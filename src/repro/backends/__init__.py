"""Unified evaluation backends.

One protocol — :class:`~repro.backends.base.Backend`, with
``evaluate(params, plan) -> EvaluationResult`` — over the four ways
this repository evaluates a checkpoint-system configuration:

``san-sim``
    Stochastic discrete-event simulation of the full SAN model
    (incremental kernel); ``san-sim-full`` is the same simulation on
    the full-rescan reference kernel (bit-identical per seed).
``ctmc``
    Exact steady state of the exponential checkpoint chain via the
    state-space generator.
``cluster``
    Message-level per-node simulation of the coordination protocol.
``analytical``
    Renewal-theory and order-statistic closed forms.

Resolve a backend with :func:`~repro.backends.registry.get_backend`.
Each stock backend is imported and built on its first lookup, so a
process that runs only the simulation never loads the cluster
simulator, the closed forms or the CTMC solvers. See
``docs/ARCHITECTURE.md`` for the full picture (registry, capability
flags, result schema, result cache).
"""

from __future__ import annotations

from .._lazy import lazy_exports
from .base import (
    Backend,
    BackendCapabilities,
    BackendError,
    COORDINATION_ONLY_USEFUL_FRACTION,
    DERIVED_METRICS,
    EvaluationPlan,
    EvaluationResult,
    MEAN_COORDINATION_TIME,
    MetricValue,
    SCHEMA_VERSION,
    SchemaMismatchError,
    TOTAL_USEFUL_WORK,
    USEFUL_WORK_FRACTION,
    UnknownBackendError,
    UnsupportedMetricError,
    UnsupportedParametersError,
    non_flat_strategy,
)
from .cache import ResultCache
from .registry import (
    all_backends,
    backend_ids,
    get_backend,
    register,
    unregister,
)

__all__ = [
    "SCHEMA_VERSION",
    "USEFUL_WORK_FRACTION",
    "TOTAL_USEFUL_WORK",
    "MEAN_COORDINATION_TIME",
    "COORDINATION_ONLY_USEFUL_FRACTION",
    "DERIVED_METRICS",
    "Backend",
    "BackendCapabilities",
    "BackendError",
    "UnknownBackendError",
    "non_flat_strategy",
    "UnsupportedMetricError",
    "UnsupportedParametersError",
    "SchemaMismatchError",
    "MetricValue",
    "EvaluationPlan",
    "EvaluationResult",
    "ResultCache",
    "register",
    "unregister",
    "get_backend",
    "backend_ids",
    "all_backends",
    "SanSimulationBackend",
    "CTMCBackend",
    "ClusterBackend",
    "AnalyticalBackend",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".san_sim": ("SanSimulationBackend",),
    ".ctmc": ("CTMCBackend",),
    ".cluster": ("ClusterBackend",),
    ".analytical": ("AnalyticalBackend",),
})
