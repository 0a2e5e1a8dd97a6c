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

Importing this package registers the default backends; resolve them
with :func:`~repro.backends.registry.get_backend`. See
``docs/ARCHITECTURE.md`` for the full picture (registry, capability
flags, result schema, result cache).
"""

from __future__ import annotations

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
    UnsupportedBackendError,
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
from .analytical import AnalyticalBackend
from .cluster import ClusterBackend
from .ctmc import CTMCBackend
from .san_sim import SanSimulationBackend

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
    "UnsupportedBackendError",
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


def _register_defaults() -> None:
    """Idempotently register the stock backends."""
    from . import registry as _registry

    defaults = (
        SanSimulationBackend(),
        SanSimulationBackend(id="san-sim-full", kernel="full"),
        CTMCBackend(),
        ClusterBackend(),
        AnalyticalBackend(),
    )
    for backend in defaults:
        if backend.id not in _registry._REGISTRY:
            register(backend)


_register_defaults()
