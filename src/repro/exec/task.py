"""Serializable evaluation tasks and their result envelope.

The unit of work for the whole execution layer is one
:class:`EvaluationTask`: a sweep point (model parameters + evaluation
plan), the backend that should evaluate it, the seed policy that makes
it reproducible, and the attempt number the retry layer stamped on it.
A task is a frozen dataclass of picklable primitives, round-trips
through JSON (:meth:`EvaluationTask.to_json_dict` /
:meth:`EvaluationTask.from_json_dict`) under a versioned schema, and
is content-addressed by the same canonical digest the result cache
files its entries under (:func:`repro.backends.cache.request_digest`)
— so "two submissions are the same work" means exactly "the cache
would serve both from one entry".

:func:`execute_task` is the one evaluation recipe every executor runs
(in-process for the serial and queue executors, inside a worker
process for the pool): resolve the backend, evaluate under the task's
derived seed, best-effort write the result through to the cache, and
fold any exception into a structured :class:`TaskResult` failure
payload — nothing un-picklable ever crosses a process boundary. It
makes exactly one attempt: retries and fallbacks belong to
:class:`~repro.experiments.resilience.SweepSupervisor`.
"""

from __future__ import annotations

import traceback
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, Optional, Tuple

from ..backends import (
    EvaluationPlan,
    EvaluationResult,
    ResultCache,
    get_backend,
)
from ..backends.cache import request_digest
from ..core.parameters import ModelParameters
from ..core.simulation import SimulationPlan
from ..san.rng import stable_stream_key

__all__ = [
    "TASK_SCHEMA_VERSION",
    "Outcome",
    "TaskError",
    "EvaluationTask",
    "TaskResult",
    "derive_attempt_seed",
    "failure_payload",
    "execute_task",
    "tighten_budget",
]

#: Version of the task JSON schema. Bump when a field changes meaning;
#: readers reject foreign versions instead of guessing.
TASK_SCHEMA_VERSION = 1

#: A point outcome as journaled and assembled:
#: ``(series, x, mean, half_width)``.
Outcome = Tuple[str, float, float, float]


class TaskError(ValueError):
    """A task payload cannot be decoded (wrong schema version, missing
    fields, malformed structure), or an error result was asked for an
    outcome."""


def derive_attempt_seed(base_seed: int, attempt: int) -> int:
    """The seed of retry ``attempt`` for a point whose first attempt
    used ``base_seed``.

    Attempt 0 keeps the base seed (so runs without failures match the
    historical seeding exactly); attempt ``k > 0`` folds ``(seed, k)``
    through the same stable hash the stream registry uses, giving the
    retry an independent sample path instead of deterministically
    replaying whatever poisoned the first attempt.
    """
    if attempt == 0:
        return base_seed
    return stable_stream_key(f"retry/{base_seed}/{attempt}")


def tighten_budget(plan: EvaluationPlan,
                   seconds: Optional[float]) -> EvaluationPlan:
    """``plan`` with its simulation ``wall_clock_budget`` at most
    ``seconds`` (a looser existing budget is replaced, a tighter one
    kept; ``None`` leaves the plan as it is).

    This is how a per-point timeout reaches the kernel cooperatively:
    the simulator raises
    :class:`~repro.san.errors.WallClockExceededError` when the budget
    runs out. A budget never changes a value, so it does not take part
    in the request digest (see :func:`repro.backends.base.plan_key_dict`).
    """
    if seconds is None:
        return plan
    budget = plan.simulation.wall_clock_budget
    if budget is not None and budget <= seconds:
        return plan
    return replace(
        plan, simulation=replace(plan.simulation, wall_clock_budget=seconds)
    )


def failure_payload(exc: BaseException) -> Dict[str, str]:
    """Serialise an exception for transport out of a worker process."""
    return {
        "error_type": type(exc).__name__,
        "error_message": str(exc),
        "traceback": traceback.format_exc(),
    }


@dataclass(frozen=True)
class EvaluationTask:
    """One serializable unit of evaluation work.

    Attributes
    ----------
    index:
        Position of the point in its sweep (also the retry ledger key).
    series / x:
        The figure coordinates the outcome will be plotted under.
    params:
        The model configuration to evaluate.
    plan:
        The evaluation plan *before* seeding: the effective seed of an
        attempt is :func:`derive_attempt_seed` of
        ``(base_seed, attempt)``, applied by :meth:`seeded_plan`.
    backend:
        Registered backend id to evaluate through (resolved by name in
        whichever process runs the task).
    base_seed:
        The point's own seed (``sweep seed + index`` by convention).
    attempt:
        Zero-based retry counter stamped by the supervisor.
    cache_dir:
        Optional result-cache root the executing side writes clean
        results through to.
    schema_version:
        Stamped :data:`TASK_SCHEMA_VERSION` for the JSON round-trip.
    """

    index: int
    series: str
    x: float
    params: ModelParameters
    plan: EvaluationPlan
    backend: str
    base_seed: int = 0
    attempt: int = 0
    cache_dir: Optional[str] = None
    schema_version: int = TASK_SCHEMA_VERSION

    @property
    def seed(self) -> int:
        """The effective seed of this attempt (attempt 0 = base seed)."""
        return derive_attempt_seed(self.base_seed, self.attempt)

    @property
    def key(self) -> Tuple[str, float]:
        """The figure key ``(series, x)`` this task's outcome fills."""
        return (self.series, self.x)

    def seeded_plan(self) -> EvaluationPlan:
        """The evaluation plan rooted at this attempt's derived seed."""
        return self.plan.with_seed(self.seed)

    def with_attempt(self, attempt: int) -> "EvaluationTask":
        """The same work stamped with a different attempt number."""
        return replace(self, attempt=attempt)

    def cache_key(self) -> str:
        """Canonical digest of this task's evaluation request.

        Identical to the :class:`~repro.backends.cache.ResultCache`
        entry key for the same request (backend id + version, params,
        seeded plan), so queue-level deduplication and cache hits
        agree on what "the same work" means. The seed participates:
        different attempts (or sweeps rooted at different seeds) are
        distinct work.
        """
        backend = get_backend(self.backend)
        return request_digest(backend, self.params, self.seeded_plan())

    def to_json_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict that :meth:`from_json_dict` reverses."""
        plan = self.plan
        return {
            "schema_version": self.schema_version,
            "index": self.index,
            "series": self.series,
            "x": self.x,
            "backend": self.backend,
            "base_seed": self.base_seed,
            "attempt": self.attempt,
            "cache_dir": self.cache_dir,
            "params": asdict(self.params),
            "plan": {
                "metrics": list(plan.metrics),
                "seed": plan.seed,
                "duration": plan.duration,
                "simulation": asdict(plan.simulation),
            },
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "EvaluationTask":
        """Rebuild a task from :meth:`to_json_dict` output.

        Raises :class:`TaskError` on a foreign schema version or a
        payload that does not reconstruct — a persisted queue must
        fail loudly on tasks written by an incompatible version rather
        than evaluate something other than what was submitted.
        """
        if not isinstance(payload, dict):
            raise TaskError(
                f"task payload must be an object, got {type(payload).__name__}"
            )
        version = payload.get("schema_version")
        if version != TASK_SCHEMA_VERSION:
            raise TaskError(
                f"task schema version {version!r} is not readable by this "
                f"package (expected {TASK_SCHEMA_VERSION})"
            )
        try:
            plan_payload = payload["plan"]
            simulation = dict(plan_payload["simulation"])
            # Tasks queued while the batched kernel existed carry its
            # batch_size field (null for every other kernel).
            simulation.pop("batch_size", None)
            plan = EvaluationPlan(
                metrics=tuple(plan_payload["metrics"]),
                simulation=SimulationPlan(**simulation),
                seed=plan_payload["seed"],
                duration=plan_payload["duration"],
            )
            # Tasks queued while the queue had priorities carry a
            # ``priority`` field, which is not read.
            return cls(
                index=int(payload["index"]),
                series=payload["series"],
                x=float(payload["x"]),
                params=ModelParameters(**payload["params"]),
                plan=plan,
                backend=payload["backend"],
                base_seed=int(payload["base_seed"]),
                attempt=int(payload["attempt"]),
                cache_dir=payload.get("cache_dir"),
            )
        except TaskError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise TaskError(f"malformed task payload: {exc}") from exc


@dataclass
class TaskResult:
    """What executing one :class:`EvaluationTask` produced.

    ``status`` is ``"ok"`` or ``"error"``. An ok result is built by
    :meth:`from_evaluation` and carries the figure outcome (``mean`` /
    ``half_width``) plus the full
    :class:`~repro.backends.base.EvaluationResult` under ``result``; an
    error result carries the structured :func:`failure_payload` under
    ``failure``. Provenance travels with the envelope: which attempt
    ran, under which derived seed, and whether the result was
    ``coalesced`` (served from another submission's evaluation or a
    persistent queue's result store rather than evaluated for this
    submission).
    """

    status: str
    index: int
    series: str
    x: float
    attempt: int
    seed_used: int
    mean: Optional[float] = None
    half_width: Optional[float] = None
    result: Optional[EvaluationResult] = None
    failure: Optional[Dict[str, str]] = None
    coalesced: bool = False

    @classmethod
    def from_evaluation(cls, task: EvaluationTask, result: EvaluationResult,
                        coalesced: bool = False) -> "TaskResult":
        """The ok result of ``task`` carrying ``result``, fresh from a
        backend or read back from a store; the outcome is the task's
        first plan metric."""
        value = result.metric(task.plan.metrics[0])
        return cls(
            status="ok",
            index=task.index,
            series=task.series,
            x=task.x,
            attempt=task.attempt,
            seed_used=task.seed,
            mean=value.mean,
            half_width=value.half_width,
            result=result,
            coalesced=coalesced,
        )

    @property
    def ok(self) -> bool:
        """True when the evaluation succeeded."""
        return self.status == "ok"

    @property
    def outcome(self) -> Outcome:
        """The figure outcome ``(series, x, mean, half_width)``.

        Only meaningful on ok results; an error result raises
        :class:`TaskError` rather than fabricate numbers.
        """
        if not self.ok or self.mean is None or self.half_width is None:
            raise TaskError(
                f"task {self.index} (attempt {self.attempt}) has no outcome: "
                f"status={self.status!r}"
            )
        return (self.series, self.x, self.mean, self.half_width)


def execute_task(
    task: EvaluationTask,
    fault_plan: Optional[Any] = None,
) -> TaskResult:
    """Evaluate one task once; never raise.

    Resolves the backend by name (backends register at import time in
    every process), evaluates under the task's derived attempt seed,
    and best-effort writes the result through to the task's cache.
    Exceptions are folded into a structured ``"error"``
    :class:`TaskResult` before they cross any process boundary.

    ``fault_plan`` (a :class:`~repro.experiments.faultinject.FaultPlan`
    or :class:`~repro.experiments.faultinject.BackendFaultPlan`) wraps
    the evaluation in its ``before_task`` / ``after_task`` hooks:
    crashes and hangs before it, result corruption after it.
    """
    try:
        if fault_plan is not None:
            fault_plan.before_task(task)
        backend = get_backend(task.backend)
        seeded_plan = task.seeded_plan()
        result = backend.evaluate(task.params, seeded_plan)
        if fault_plan is not None:
            result = fault_plan.after_task(task, result)
        evaluated = TaskResult.from_evaluation(task, result)
        if task.cache_dir:
            try:
                ResultCache(task.cache_dir).put(
                    backend, task.params, seeded_plan, result
                )
            except OSError:
                pass  # a full or read-only cache must not fail the point
        return evaluated
    except Exception as exc:
        return TaskResult(
            status="error",
            index=task.index,
            series=task.series,
            x=task.x,
            attempt=task.attempt,
            seed_used=task.seed,
            failure=failure_payload(exc),
        )
