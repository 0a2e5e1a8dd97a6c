"""Backend protocol, evaluation plan/result schema, and errors.

An *evaluation backend* answers one question — "what are the metrics
of this configuration?" — through one interface::

    backend = get_backend("san-sim")
    result = backend.evaluate(params, EvaluationPlan(metrics=("useful_work_fraction",)))
    print(result.metric("useful_work_fraction").mean)

The paper validates its model three independent ways (stochastic SAN
simulation, exact solution of small sub-models, and a message-level
cluster simulation), plus renewal-theory closed forms; each of those
paths is a backend registered in :mod:`repro.backends.registry`, and
everything downstream (sweeps, figures, the CLI, the result cache)
speaks only this protocol.

The result schema is versioned: every :class:`EvaluationResult`
carries ``schema_version`` (:data:`SCHEMA_VERSION`) and the package
version, and deserialisation rejects payloads written under another
schema with :class:`SchemaMismatchError` instead of silently
misreading them.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Tuple

try:  # Protocol is 3.8+; keep the import local to one place.
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - Python < 3.8 fallback
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


from .._version import __version__
from ..core.parameters import ModelParameters, require_finite
from ..core.simulation import SimulationPlan
from ..obs import metrics as _obs_metrics

__all__ = [
    "observed",
    "SCHEMA_VERSION",
    "USEFUL_WORK_FRACTION",
    "TOTAL_USEFUL_WORK",
    "MEAN_COORDINATION_TIME",
    "COORDINATION_ONLY_USEFUL_FRACTION",
    "DERIVED_METRICS",
    "BackendError",
    "UnknownBackendError",
    "UnsupportedMetricError",
    "UnsupportedParametersError",
    "SchemaMismatchError",
    "MetricValue",
    "EvaluationPlan",
    "EvaluationResult",
    "BackendCapabilities",
    "Backend",
    "BaseBackend",
    "non_flat_strategy",
]

#: Version of the :class:`EvaluationResult` JSON schema. Bump whenever
#: a serialised field changes meaning; loaders reject other versions.
SCHEMA_VERSION = 1

#: The paper's headline metric: fraction of wall-clock time spent on
#: useful (checkpoint-surviving) computation.
USEFUL_WORK_FRACTION = "useful_work_fraction"
#: ``useful_work_fraction`` scaled by the processor count (job units).
TOTAL_USEFUL_WORK = "total_useful_work"
#: Mean QUIESCE-broadcast -> all-READY latency (seconds).
MEAN_COORDINATION_TIME = "mean_coordination_time"
#: Figure 5's closed form: UWF with coordination as the only overhead.
COORDINATION_ONLY_USEFUL_FRACTION = "coordination_only_useful_fraction"

#: Metrics derived by scaling another metric. A backend that can
#: produce the base metric can produce the derived one; the sweep
#: runner performs the scaling with the point's own processor count.
DERIVED_METRICS: Dict[str, str] = {TOTAL_USEFUL_WORK: USEFUL_WORK_FRACTION}


def observed(evaluate):
    """Decorator for ``Backend.evaluate`` implementations: counts the
    call as ``backend.<id>.evaluations`` and times it into
    ``backend.<id>.evaluate_seconds`` in the process metrics registry.
    Failed evaluations are additionally counted as
    ``backend.<id>.errors`` (and still timed)."""

    @functools.wraps(evaluate)
    def wrapper(self, params, plan):
        reg = _obs_metrics.registry()
        reg.counter(f"backend.{self.id}.evaluations").inc()
        try:
            with reg.timer(f"backend.{self.id}.evaluate_seconds"):
                return evaluate(self, params, plan)
        except Exception:
            reg.counter(f"backend.{self.id}.errors").inc()
            raise

    return wrapper


class BackendError(Exception):
    """Base class of every backend-layer error."""


class UnknownBackendError(BackendError, ValueError):
    """No backend with the requested id is registered."""


class UnsupportedMetricError(BackendError, ValueError):
    """The backend cannot produce the requested metric.

    Subclasses :class:`ValueError` so call sites that historically
    validated metric names with ``ValueError`` keep working.
    """


class UnsupportedParametersError(BackendError, ValueError):
    """The backend cannot evaluate the given configuration (a model
    feature it does not implement, or a scale it cannot reach)."""


class SchemaMismatchError(BackendError, ValueError):
    """A serialised result was written under a different schema
    version than this package understands."""


@dataclass(frozen=True)
class MetricValue:
    """One reported metric: a point estimate and its 95% half-width.

    Exact and closed-form backends report ``half_width == 0.0``.
    """

    mean: float
    half_width: float = 0.0


@dataclass(frozen=True)
class EvaluationPlan:
    """What to evaluate and how hard to work at it.

    Attributes
    ----------
    metrics:
        The metric names the caller needs (the first one is the
        sweep's y value). Backends may compute more than requested
        but must cover every listed name.
    simulation:
        Effort knobs for simulation backends (warmup, observation
        window, replications, strategy). Closed-form backends ignore
        it; the backend id chooses a simulation's event kernel.
    seed:
        Root random seed for stochastic backends; ignored by exact
        and closed-form backends.
    duration:
        Observed window for the single-trajectory cluster backend.
        ``None`` falls back to ``simulation.observation``.
    """

    metrics: Tuple[str, ...] = (USEFUL_WORK_FRACTION,)
    simulation: SimulationPlan = field(default_factory=SimulationPlan)
    seed: int = 0
    duration: Optional[float] = None

    #: Every float field, checked for NaN and infinity.
    _FLOAT_FIELDS = ("duration",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "metrics", tuple(self.metrics))
        if not self.metrics:
            raise ValueError("an evaluation plan needs at least one metric")
        require_finite(self, self._FLOAT_FIELDS)
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")

    def with_seed(self, seed: int) -> "EvaluationPlan":
        """The same plan rooted at a different seed."""
        return replace(self, seed=seed)


@dataclass
class EvaluationResult:
    """What a backend produced for one configuration.

    The JSON form (:meth:`to_json` / :meth:`from_json`) round-trips
    exactly and is stamped with the schema version, the package
    version and the producing backend, so cached results remain
    attributable and version-checkable across runs.
    """

    backend: str
    metrics: Dict[str, MetricValue] = field(default_factory=dict)
    details: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    backend_version: int = 1
    schema_version: int = SCHEMA_VERSION
    repro_version: str = __version__

    def metric(self, name: str) -> MetricValue:
        """The named metric, or :class:`UnsupportedMetricError`."""
        try:
            return self.metrics[name]
        except KeyError:
            raise UnsupportedMetricError(
                f"backend {self.backend!r} did not produce metric {name!r}; "
                f"available: {', '.join(sorted(self.metrics)) or '(none)'}"
            ) from None

    def to_json_dict(self) -> Dict[str, object]:
        """A plain-JSON representation (stable key order via dumps)."""
        return {
            "schema_version": self.schema_version,
            "repro_version": self.repro_version,
            "backend": self.backend,
            "backend_version": self.backend_version,
            "metrics": {
                name: {"mean": value.mean, "half_width": value.half_width}
                for name, value in self.metrics.items()
            },
            "details": dict(self.details),
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        """Serialise to a canonical JSON string."""
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, payload: Dict[str, object]) -> "EvaluationResult":
        """Rebuild a result, rejecting foreign schema versions."""
        if not isinstance(payload, dict):
            raise SchemaMismatchError(
                f"evaluation result payload must be an object, "
                f"got {type(payload).__name__}"
            )
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaMismatchError(
                f"evaluation result has schema version {version!r}; this "
                f"package reads version {SCHEMA_VERSION}"
            )
        metrics = {
            str(name): MetricValue(
                mean=float(value["mean"]),
                half_width=float(value.get("half_width", 0.0)),
            )
            for name, value in dict(payload.get("metrics", {})).items()
        }
        return cls(
            backend=str(payload["backend"]),
            metrics=metrics,
            details={
                str(k): float(v)
                for k, v in dict(payload.get("details", {})).items()
            },
            notes=[str(note) for note in payload.get("notes", [])],
            backend_version=int(payload.get("backend_version", 1)),
            schema_version=SCHEMA_VERSION,
            repro_version=str(payload.get("repro_version", __version__)),
        )

    @classmethod
    def from_json(cls, text: str) -> "EvaluationResult":
        """Inverse of :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise SchemaMismatchError(
                f"evaluation result is not valid JSON: {exc}"
            ) from exc
        return cls.from_json_dict(payload)


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can compute, declared up front.

    Attributes
    ----------
    metrics:
        The metric names the backend can produce directly (derived
        metrics in :data:`DERIVED_METRICS` count via their base).
    deterministic:
        ``True`` when the result does not depend on a random seed
        (exact solves and closed forms).
    exact:
        ``True`` when the result is exact for the sub-model the
        backend solves (as opposed to statistical or approximate).
    max_nodes:
        Largest node count the backend handles in reasonable time;
        ``None`` means unbounded.
    description:
        One-line human description for the CLI listing.
    """

    metrics: frozenset
    deterministic: bool = False
    exact: bool = False
    max_nodes: Optional[int] = None
    description: str = ""

    def supports_metric(self, metric: str) -> bool:
        """Whether the backend can produce ``metric``, directly or as
        a derived metric of something it produces."""
        return DERIVED_METRICS.get(metric, metric) in self.metrics

    @property
    def kind(self) -> str:
        """Statistical nature of the backend's numbers, for the
        validation layer's oracle hierarchy:

        * ``"exact"`` — exact for the sub-model it solves; usable as a
          one-sample oracle (zero sampling error).
        * ``"closed-form"`` — deterministic but approximate (renewal
          closed forms); also zero sampling error, weaker authority.
        * ``"sampled"`` — statistical output; comparisons need
          two-sample machinery and honor interval validity.
        """
        if self.exact:
            return "exact"
        if self.deterministic:
            return "closed-form"
        return "sampled"


@runtime_checkable
class Backend(Protocol):
    """The evaluation-backend protocol.

    A backend is identified by ``id`` (the registry key and CLI name),
    versioned by ``backend_version`` (bumped when its numerics
    change, which invalidates cached results), and described by
    ``capabilities``.
    """

    id: str
    backend_version: int
    capabilities: BackendCapabilities

    def evaluate(
        self, params: ModelParameters, plan: EvaluationPlan
    ) -> EvaluationResult:
        """Evaluate one configuration; raises a
        :class:`BackendError` subclass when it cannot."""
        ...

    def supports(
        self, params: ModelParameters, plan: EvaluationPlan
    ) -> Optional[str]:
        """``None`` when the configuration is evaluable, else a
        human-readable reason it is not."""
        ...


class BaseBackend:
    """Shared plumbing for the concrete backends.

    Subclasses set ``id``, ``backend_version`` and ``capabilities``
    and implement :meth:`evaluate`; :meth:`check` performs the common
    metric/parameter validation they call first.
    """

    id: str = "abstract"
    backend_version: int = 1
    capabilities: BackendCapabilities = BackendCapabilities(metrics=frozenset())

    def supports(
        self, params: ModelParameters, plan: EvaluationPlan
    ) -> Optional[str]:
        """Default: every configuration is evaluable."""
        return None

    def evaluate(
        self, params: ModelParameters, plan: EvaluationPlan
    ) -> EvaluationResult:
        """Concrete backends must implement this."""
        raise NotImplementedError

    def check(self, params: ModelParameters, plan: EvaluationPlan) -> None:
        """Validate the request; raises on unknown metrics or
        unsupported configurations."""
        for metric in plan.metrics:
            if not self.capabilities.supports_metric(metric):
                raise UnsupportedMetricError(
                    f"backend {self.id!r} cannot produce metric {metric!r}; "
                    f"it supports: {', '.join(sorted(self.capabilities.metrics))}"
                )
        reason = self.supports(params, plan)
        if reason is not None:
            raise UnsupportedParametersError(
                f"backend {self.id!r} cannot evaluate this configuration: "
                f"{reason}"
            )

    def result(self, **kwargs) -> EvaluationResult:
        """An :class:`EvaluationResult` pre-stamped with this
        backend's identity and version."""
        return EvaluationResult(
            backend=self.id, backend_version=self.backend_version, **kwargs
        )


#: Field names of each request dataclass, in declaration order,
#: recorded on first use: a dataclass's fields are fixed once the
#: class is defined.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def _field_dict(obj: object) -> Dict[str, object]:
    """``obj``'s fields by name, read directly.

    Equal to ``dataclasses.asdict`` for a dataclass whose fields hold
    immutable scalars and tuples of them, as every field of
    :class:`ModelParameters`, :class:`SimulationPlan` and
    :class:`EvaluationPlan` except ``EvaluationPlan.simulation`` does,
    without ``asdict``'s deep copy of every value.
    """
    names = _FIELD_NAMES.get(type(obj))
    if names is None:
        names = _FIELD_NAMES[type(obj)] = tuple(
            spec.name for spec in fields(obj)
        )
    return {name: getattr(obj, name) for name in names}


def plan_key_dict(params: ModelParameters, plan: EvaluationPlan) -> Dict[str, object]:
    """The canonical JSON-able identity of one evaluation request
    (used by the result cache and anything else that hashes requests):
    ``{"params": asdict(params), "plan": asdict(plan)}``.

    The simulation's ``wall_clock_budget`` decides whether a run
    finishes, never its value, so it is normalised to ``None``: a
    budgeted request shares its digest with the budget-less one.
    Three pins keep keys filed under earlier plans valid: ``batch_size``
    belonged to a removed simulation kernel and was ``null`` for every
    other one; ``kernel`` and ``confidence`` were plan fields that every
    sweep left at ``"incremental"`` and ``0.95`` (the backend id now
    chooses the kernel, and every interval is a 95% one).
    """
    simulation = _field_dict(plan.simulation)
    simulation["wall_clock_budget"] = None
    simulation["batch_size"] = None
    simulation["kernel"] = "incremental"
    simulation["confidence"] = 0.95
    plan_dict = _field_dict(plan)
    plan_dict["simulation"] = simulation
    return {"params": _field_dict(params), "plan": plan_dict}


def non_flat_strategy(plan: EvaluationPlan) -> Optional[str]:
    """The plan's checkpointing-strategy spec when it is *not* the
    flat reference protocol, else ``None``.

    Backends whose model implements only the flat coordinated
    checkpoint (the exact chain, the closed forms, the message-level
    cluster protocol) veto non-flat strategies with this in
    ``supports``: a reason for sweeps to skip on, and through
    :meth:`BaseBackend.check` an :class:`UnsupportedParametersError`
    on the evaluate path.
    """
    spec = plan.simulation.strategy
    return None if spec == "flat" else spec
