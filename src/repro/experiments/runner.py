"""Sweep execution.

A *sweep* is a list of points, each a full model configuration; the
runner evaluates every point (serially, or across worker processes
when the machine has them) through a named evaluation backend (see
:mod:`repro.backends`; the default is the full SAN simulation) and
returns a :class:`FigureResult` shaped like the paper's plot: an
x-grid and one series of y-values per curve.

Execution is fault tolerant (see :mod:`repro.experiments.resilience`):
with a ``checkpoint_dir`` every completed point is journaled and an
interrupted sweep resumes bit-identically; failed or hung points are
retried with exponential backoff, then handed to the ``degrade_to``
fallback backends, and, if they never succeed, reported as structured
:class:`~repro.experiments.resilience.FailureReport` entries on the
figure instead of aborting the other points. With a
``cache_dir`` every evaluated point is also stored in a
content-addressed :class:`~repro.backends.cache.ResultCache`, so a
repeated or resumed sweep re-uses identical points *across runs* —
a warm cache re-runs a completed figure with zero new evaluations.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..backends import (
    DERIVED_METRICS,
    BackendError,
    EvaluationPlan,
    ResultCache,
    UnsupportedMetricError,
    UnsupportedParametersError,
    all_backends,
    get_backend,
)
from ..core.parameters import ModelParameters
from ..core.simulation import SimulationPlan
from ..exec import EvaluationTask, make_executor
from ..exec.task import tighten_budget
from ..obs import RunManifest, metrics as obs_metrics
from ..obs.trace import JsonlTraceSink, default_sink
from ..san import profiling
from .resilience import (
    CheckpointJournal,
    FailureReport,
    Outcome,
    ResilienceOptions,
    SupervisorResult,
    SweepSupervisor,
)

__all__ = [
    "SweepPoint",
    "FigureResult",
    "run_sweep",
    "sweep_eval_plan",
    "build_sweep_tasks",
    "DEFAULT_BACKEND",
]

#: Backend a sweep uses unless told otherwise (the paper's primary
#: evaluation path).
DEFAULT_BACKEND = "san-sim"


@dataclass(frozen=True)
class SweepPoint:
    """One simulated point of a figure.

    Attributes
    ----------
    series:
        The curve this point belongs to (legend label).
    x:
        The x-axis value the paper plots.
    params:
        The model configuration to simulate.
    """

    series: str
    x: float
    params: ModelParameters


@dataclass
class FigureResult:
    """One regenerated figure.

    ``series`` maps a curve label to ``[(x, y, half_width), ...]``
    sorted by x. ``metric`` names the y-axis ("total_useful_work" or
    "useful_work_fraction"). ``backend`` records which evaluation
    backend produced the series (``None`` for pre-backend archives).
    ``failures`` lists points that exhausted their retries (also
    summarised in ``notes``); their entries are absent from
    ``series``.

    ``unvalidated_intervals`` is True when the half-widths carry no
    statistical information (a stochastic backend ran with fewer than
    two replications): archive comparison must not claim interval
    overlap from them. ``manifest`` is the run's provenance record
    (see :class:`repro.obs.RunManifest`), written next to the archive
    by :func:`repro.experiments.archive.save_figure`.
    """

    figure_id: str
    title: str
    x_label: str
    metric: str
    series: Dict[str, List[Tuple[float, float, float]]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    failures: List[FailureReport] = field(default_factory=list)
    backend: Optional[str] = None
    unvalidated_intervals: bool = False
    manifest: Optional[RunManifest] = None

    def y_values(self, label: str) -> List[float]:
        """The y series of one curve (sorted by x)."""
        return [y for _, y, _ in self.series[label]]

    def x_values(self, label: str) -> List[float]:
        """The x grid of one curve."""
        return [x for x, _, _ in self.series[label]]

    def peak_x(self, label: str) -> float:
        """The x at which a curve attains its maximum."""
        points = self.series[label]
        return max(points, key=lambda p: p[1])[0]


def sweep_eval_plan(metric: str, plan: SimulationPlan,
                    seed: int) -> EvaluationPlan:
    """The evaluation plan a sweep roots every point's task in.

    Derived metrics (``total_useful_work``) resolve to the base metric
    the backends actually produce; the scale factor is applied at
    assembly time from each point's own processor count.
    """
    base_metric = DERIVED_METRICS.get(metric, metric)
    return EvaluationPlan(metrics=(base_metric,), simulation=plan, seed=seed)


def build_sweep_tasks(
    points: Sequence[SweepPoint],
    eval_plan: EvaluationPlan,
    seed: int,
    backend: str,
    cache_dir: Optional[str] = None,
    skip_keys: Optional[Dict[Tuple[str, float], Outcome]] = None,
) -> List[EvaluationTask]:
    """The :class:`~repro.exec.EvaluationTask` list for a sweep.

    One task per point not already answered in ``skip_keys``, seeded
    ``seed + index`` (the historical per-point convention the retry
    derivation builds on). Every executor gets this list from
    :func:`run_sweep`; on the queue executor the tasks' cache keys are
    what a sweep and the ``repro worker`` processes beside it
    coalesce on.
    """
    skip = skip_keys or {}
    return [
        EvaluationTask(
            index=index,
            series=point.series,
            # Raw (possibly integral) x: the archive preserves the
            # declared type, exactly as the pre-executor path did.
            x=point.x,
            params=point.params,
            plan=eval_plan,
            backend=backend,
            base_seed=seed + index,
            cache_dir=cache_dir,
        )
        for index, point in enumerate(points)
        if (point.series, float(point.x)) not in skip
    ]


def _check_unique_points(points: Sequence[SweepPoint]) -> None:
    """Reject sweeps with colliding ``(series, x)`` keys.

    Two points sharing a key are ambiguous everywhere downstream: the
    figure plots one y per (series, x), the journal resumes by that
    key, and the total-useful-work scaling must know *which* point's
    processor count applies.
    """
    seen: Dict[Tuple[str, float], int] = {}
    for index, point in enumerate(points):
        key = (point.series, float(point.x))
        if key in seen:
            raise ValueError(
                f"duplicate sweep point: series {point.series!r} at "
                f"x={point.x:g} appears at indices {seen[key]} and {index}; "
                "every (series, x) pair must be unique within a sweep"
            )
        seen[key] = index


def _check_backend(
    backend_name: str, metric: str, points: Sequence[SweepPoint],
    plan: EvaluationPlan,
):
    """Resolve and vet the backend for a sweep, up front.

    Raises :class:`~repro.backends.base.UnsupportedMetricError` (with
    the backends that *could* produce the metric) or
    :class:`~repro.backends.base.UnsupportedParametersError` naming
    the first offending point — before any simulation time is spent.
    """
    backend = get_backend(backend_name)
    if not backend.capabilities.supports_metric(metric):
        able = [
            other.id
            for other in all_backends()
            if other.capabilities.supports_metric(metric)
        ]
        hint = (
            f"; backends that can: {', '.join(able)}"
            if able
            else ""
        )
        raise UnsupportedMetricError(
            f"backend {backend_name!r} cannot produce metric {metric!r} "
            f"(it supports: {', '.join(sorted(backend.capabilities.metrics))})"
            f"{hint}"
        )
    for point in points:
        reason = backend.supports(point.params, plan)
        if reason is not None:
            raise UnsupportedParametersError(
                f"backend {backend_name!r} cannot evaluate point "
                f"{point.series!r} @ x={point.x:g}: {reason}"
            )
    return backend


def run_sweep(
    figure_id: str,
    title: str,
    x_label: str,
    metric: str,
    points: Sequence[SweepPoint],
    plan: SimulationPlan,
    seed: int = 0,
    processes: Optional[int] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    resilience: Optional[ResilienceOptions] = None,
    backend: str = DEFAULT_BACKEND,
    executor=None,
    queue_dir: Optional[str] = None,
) -> FigureResult:
    """Evaluate every point and assemble the figure.

    ``metric`` selects the reported y value: ``"useful_work_fraction"``
    or ``"total_useful_work"`` (the latter scales the fraction by the
    point's processor count). Point ``i`` uses seed ``seed + i`` so a
    sweep is reproducible and points are independent; a retried point
    uses a seed derived from ``(seed + i, attempt)``.

    ``backend`` names the registered evaluation backend every point
    runs through (default ``"san-sim"``, the full SAN simulation);
    the backend's capabilities are checked against the metric and
    every point's parameters before any work starts.

    ``resilience`` configures checkpointing, resume, retries, timeouts,
    fallback backends and fault injection; see
    :class:`~repro.experiments.resilience.ResilienceOptions`. Each
    ``degrade_to`` fallback is checked against the metric and every
    point up front, like ``backend``; one that fails the check is
    skipped with a note. A point that falls back is labelled
    ``DEGRADED`` on the figure and is never cached or journaled. With a
    ``checkpoint_dir`` the sweep journals every completed point to
    ``<checkpoint_dir>/<figure_id>.journal.jsonl`` and a re-run resumes
    from it, producing a figure bit-identical to an uninterrupted run.
    With a ``cache_dir`` every evaluated point is stored in (and looked
    up from) a content-addressed result cache keyed by the canonical
    parameter hash, backend id/version and schema version, so repeated
    sweeps skip already-evaluated points across runs.

    ``executor`` selects the execution substrate (see
    :mod:`repro.exec`). This is the one place a sweep's executor is
    resolved: a name (``"serial"`` / ``"pool"`` / ``"queue"``, the
    last requiring ``queue_dir``) or ``None`` — the pool from
    ``processes >= 2``, serial below that — is built once through
    :func:`~repro.exec.base.make_executor` with the sweep's
    ``point_timeout`` and ``fault_plan``, and closed when the sweep
    ends. An :class:`~repro.exec.base.Executor` instance is driven
    as-is and left open, so several sweeps can share one persistent
    queue and coalesce their common points; it keeps the fault plan
    it was built with, so passing one together with
    ``resilience.fault_plan`` raises :class:`ValueError` instead of
    dropping the sweep's plan. The manifest's ``execution`` section
    records which executor ran and what it did.
    """
    if metric not in ("useful_work_fraction", "total_useful_work"):
        raise ValueError(f"unknown metric {metric!r}")
    _check_unique_points(points)
    options = resilience or ResilienceOptions()
    owns_executor = executor is None or isinstance(executor, str)
    if owns_executor:
        # Built before the journal opens, so a bad name or a queue
        # without a directory fails with nothing to clean up; no
        # executor holds a resource until it runs a task.
        if executor is None:
            pooled = processes is not None and processes > 1
            executor = "pool" if pooled else "serial"
        executor = make_executor(
            executor,
            processes=processes,
            point_timeout=options.point_timeout,
            fault_plan=options.fault_plan,
            queue_dir=queue_dir,
        )
    elif options.fault_plan is not None:
        raise ValueError(
            "run_sweep got an executor instance and resilience.fault_plan; "
            "the instance keeps the fault plan it was built with, so build "
            "it with make_executor(..., fault_plan=...) or pass the "
            "executor by name"
        )
    start_clock = time.monotonic()
    reg = obs_metrics.registry()
    reg.counter("sweep.runs").inc()

    eval_plan = tighten_budget(
        sweep_eval_plan(metric, plan, seed), options.point_timeout
    )
    base_metric = eval_plan.metrics[0]
    backend_obj = _check_backend(backend, metric, points, eval_plan)

    total = len(points)
    notes: List[str] = []
    if plan.strategy != "flat":
        # Flat sweeps carry no note so pre-zoo archives stay
        # bit-identical; non-flat runs are visibly labelled.
        notes.append(f"checkpoint strategy: {plan.strategy}")
    fallbacks = options.degrade_to
    if backend in fallbacks:
        # A chain naming the primary continues after it.
        fallbacks = fallbacks[fallbacks.index(backend) + 1:]
    checked_fallbacks: List[str] = []
    for fallback in dict.fromkeys(fallbacks):
        try:
            _check_backend(fallback, metric, points, eval_plan)
        except BackendError as exc:
            notes.append(f"fallback backend {fallback!r} skipped: {exc}")
        else:
            checked_fallbacks.append(fallback)
    completed: Dict[Tuple[str, float], Outcome] = {}
    journal: Optional[CheckpointJournal] = None
    if options.checkpoint_dir:
        journal = CheckpointJournal(
            os.path.join(options.checkpoint_dir, f"{figure_id}.journal.jsonl")
        )
        fingerprint = CheckpointJournal.fingerprint(
            figure_id,
            metric,
            seed,
            plan,
            [(p.series, float(p.x), repr(p.params)) for p in points],
            backend=backend,
        )
        if options.resume:
            state = journal.load(fingerprint)
            completed = state.outcomes
            notes.extend(state.notes)
        else:
            journal.discard()
        journal.begin(
            fingerprint,
            {"figure_id": figure_id, "metric": metric, "seed": seed,
             "n_points": total, "backend": backend},
        )
        if completed:
            notes.append(
                f"resumed from checkpoint journal: {len(completed)} of "
                f"{total} point(s) already simulated"
            )

    points_from_journal = len(completed)
    cache = ResultCache(options.cache_dir) if options.cache_dir else None
    cache_hits = 0
    if cache is not None:
        for index, point in enumerate(points):
            key = (point.series, float(point.x))
            if key in completed:
                continue
            cached = cache.get(
                backend_obj, point.params, eval_plan.with_seed(seed + index)
            )
            if cached is None:
                continue
            value = cached.metrics.get(base_metric)
            if value is None:
                continue
            # Keep the point's declared x (and its type): executed
            # points carry task.x through unchanged, so a cache-served
            # point must too or warm archives stop being bit-identical
            # to cold ones (131072 would become 131072.0).
            outcome: Outcome = (
                point.series, point.x, value.mean, value.half_width
            )
            completed[key] = outcome
            cache_hits += 1
            if journal is not None:
                journal.record_point(
                    index, outcome[0], outcome[1], outcome[2], outcome[3],
                    attempt=0, seed_used=seed + index,
                )
        if cache_hits:
            notes.append(
                f"result cache: {cache_hits} of {total} point(s) reused "
                f"from {options.cache_dir}"
            )

    done = len(completed)
    if progress and done:
        progress(done, total)

    tasks = build_sweep_tasks(
        points, eval_plan, seed, backend,
        cache_dir=options.cache_dir, skip_keys=completed,
    )

    completed_this_run = 0

    def on_success(task: EvaluationTask, outcome: Outcome, attempt: int,
                   seed_used: int) -> None:
        nonlocal done, completed_this_run
        # A fallback backend's value is never journaled: a resumed run
        # must not serve it as the primary backend's.
        if journal is not None and task.backend == backend:
            journal.record_point(
                task.index, outcome[0], outcome[1], outcome[2], outcome[3],
                attempt, seed_used,
            )
        done += 1
        completed_this_run += 1
        if progress:
            progress(done, total)
        if options.fault_plan is not None:
            options.fault_plan.after_success(completed_this_run)

    supervisor = SweepSupervisor(
        replace(options, degrade_to=tuple(checked_fallbacks)),
        executor,
        on_success=on_success,
    )
    try:
        supervised: SupervisorResult = supervisor.run(tasks)
    finally:
        if owns_executor:
            executor.close()
        if journal is not None:
            journal.close()

    outcomes_by_key: Dict[Tuple[str, float], Outcome] = dict(completed)
    for index, outcome in supervised.outcomes.items():
        outcomes_by_key[(outcome[0], float(outcome[1]))] = outcome
    notes.extend(supervised.notes)

    if progress and supervised.failures:
        # Failed points still count as "handled" so progress reaches total.
        done += len(supervised.failures)
        progress(done, total)

    figure = FigureResult(figure_id, title, x_label, metric, backend=backend)
    figure.failures = list(supervised.failures)
    for report in supervised.failures:
        notes.append("FAILED: " + report.summary())
    if not backend_obj.capabilities.exact and plan.replications < 2:
        figure.unvalidated_intervals = True
        notes.append(
            f"UNVALIDATED intervals: stochastic backend {backend!r} ran "
            f"with {plan.replications} replication(s); half-widths carry "
            "no statistical information and archive comparison will not "
            "claim interval overlap from them"
        )
    figure.notes = notes

    # Assemble in declared point order (deterministic regardless of
    # scheduling); the scale factor comes from the point itself, so two
    # configurations can never collide the way a (series, x)-keyed
    # lookup table could.
    for point in points:
        outcome = outcomes_by_key.get((point.series, float(point.x)))
        if outcome is None:
            continue
        _, x, mean, half_width = outcome
        if metric == "total_useful_work":
            factor = point.params.n_processors
            entry = (x, mean * factor, half_width * factor)
        else:
            entry = (x, mean, half_width)
        figure.series.setdefault(point.series, []).append(entry)
    for label in figure.series:
        figure.series[label].sort(key=lambda p: p[0])

    # Retries, timeouts, failures and fallbacks, as the supervisor saw
    # them; nothing is added when nothing happened.
    resilience_section = supervised.resilience_section()
    if resilience_section is not None:
        summary = resilience_section["summary"]
        # ``figure.notes`` is the same list object as ``notes``.
        for stamp in sorted(set(summary.get("degraded", []))):
            notes.append(f"DEGRADED: {stamp}")
        notes.append(
            "resilience: "
            + ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(summary["by_kind"].items())
            )
        )

    new_evaluations = len(supervised.outcomes)
    retries = sum(
        max(0, attempts - 1) for attempts in supervised.attempts.values()
    )
    reg.counter("sweep.points_total").inc(total)
    reg.counter("sweep.points_from_journal").inc(points_from_journal)
    reg.counter("sweep.points_from_cache").inc(cache_hits)
    reg.counter("sweep.evaluations").inc(new_evaluations)
    reg.counter("sweep.retries").inc(retries)
    reg.counter("sweep.failed_points").inc(len(supervised.failures))
    wall_clock = time.monotonic() - start_clock
    reg.timing("sweep.run_seconds").observe(wall_clock)

    execution_section: Dict[str, object] = dict(supervised.execution or {})
    if not execution_section:
        # Nothing needed executing (fully journaled/cached sweep):
        # still record which executor *would* have run.
        execution_section = {
            "executor": executor.capabilities.name,
            "tasks_executed": 0,
        }
    execution_section["attempts"] = {
        str(index): count
        for index, count in sorted(supervised.attempts.items())
    }

    aggregate = profiling.aggregated()
    sink = default_sink()
    figure.manifest = RunManifest(
        figure_id=figure_id,
        backend=backend,
        backend_version=backend_obj.backend_version,
        metric=metric,
        seed=seed,
        plan=asdict(plan),
        points_total=total,
        points_from_journal=points_from_journal,
        points_from_cache=cache_hits,
        new_evaluations=new_evaluations,
        retries=retries,
        failed_points=len(supervised.failures),
        kernel_stats=aggregate.as_dict() if aggregate is not None else None,
        metrics=reg.snapshot(),
        trace=sink.summary() if isinstance(sink, JsonlTraceSink) else None,
        wall_clock_seconds=wall_clock,
        resilience=resilience_section,
        execution=execution_section,
        notes=list(notes),
    )
    return figure
