"""The job API of the evaluation service: submit, poll, collect.

A *job* is one figure sweep submitted to a shared queue directory as
a named, tenant-labelled unit: the submitter writes a JSON *job
record* next to the queue — ``<queue_dir>/jobs/<job_id>.json`` —
holding the point list, their cache keys, the priority, the tenant
label, and submitted/started/finished timestamps, then enqueues every
point's :class:`~repro.exec.EvaluationTask` through
:meth:`~repro.exec.queue.WorkQueue.enqueue` (coalescing against work
already queued or already answered). Workers
(:mod:`repro.service.worker`) drain the queue without knowing about
jobs at all; a job is *observed* to completion by looking its keys up
in the queue's results store (:func:`job_status`) and its figure is
assembled from those stored results (:func:`collect_job`) without ever
blocking a worker. Every lookup goes through
:meth:`~repro.exec.queue.WorkQueue.lookup`, so a pruned or unreadable
entry is a point still to answer, and re-submitting the job enqueues
it again.

Because tasks are built by the exact recipe the in-process sweep uses
(:func:`repro.experiments.runner.build_sweep_tasks`) and results are
content-addressed by the same canonical digest as the result cache, a
collected job archive is bit-identical to a serial
``repro run-figure`` of the same figure/preset/seed — the CI
service-smoke job's core assertion.

Per-tenant accounting: submission increments
``tenant.<label>.submitted`` and ``tenant.<label>.served_from_cache``
in the process metrics registry (and mirrors the totals into the job
record); workers increment ``tenant.<label>.evaluated`` / ``.failed``
on their side. Both persist snapshots under ``<queue_dir>/obs/`` so
``repro obs`` can render the tenant counters after every process has
exited.
"""

from __future__ import annotations

import os
import time
import uuid
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..backends import DERIVED_METRICS
from ..exec.queue import WorkQueue, atomic_write_json
from ..obs import metrics as obs_metrics
from ..obs.manifest import RunManifest

__all__ = [
    "JOB_SCHEMA_VERSION",
    "JobError",
    "JobRecord",
    "JobStatus",
    "jobs_dir",
    "job_path",
    "list_jobs",
    "load_job",
    "submit_job",
    "job_status",
    "collect_job",
    "write_metrics_snapshot",
]

#: Version of the job-record JSON schema; readers reject foreign
#: versions instead of guessing, like every other schema in the repo.
JOB_SCHEMA_VERSION = 1


class JobError(ValueError):
    """A job record is missing, malformed, foreign-schema, or the job
    is not in the state the operation needs (e.g. collecting an
    unfinished job)."""


def jobs_dir(queue_dir: str) -> str:
    """Where a queue's job records live."""
    return os.path.join(queue_dir, "jobs")


def job_path(queue_dir: str, job_id: str) -> str:
    """The record path of one job."""
    return os.path.join(jobs_dir(queue_dir), f"{job_id}.json")


def obs_dir(queue_dir: str) -> str:
    """Where the service's metrics snapshots live (rendered by
    ``repro obs``)."""
    return os.path.join(queue_dir, "obs")


def write_metrics_snapshot(queue_dir: str, name: str) -> str:
    """Persist the process metrics registry as
    ``<queue_dir>/obs/<name>.metrics.json`` (atomic); returns the path.

    Metrics registries are process-local, so every service process —
    submitters and workers alike — drops its snapshot here for
    ``repro obs <queue_dir>/obs`` to render after the process is gone.
    """
    directory = obs_dir(queue_dir)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.metrics.json")
    atomic_write_json(path, obs_metrics.registry().snapshot())
    return path


@dataclass
class JobRecord:
    """The persisted description of one submitted job.

    ``points`` holds one entry per sweep point:
    ``{"index", "series", "x", "key", "n_processors"}`` — everything
    :func:`collect_job` needs to assemble the figure from the results
    store (the raw ``x`` preserves the declared numeric type so the
    collected archive matches a serial run byte for byte, and
    ``n_processors`` scales ``total_useful_work``).
    """

    job_id: str
    figure_id: str
    name: str
    tenant: str
    preset: str
    seed: int
    backend: str
    metric: str
    title: str
    x_label: str
    replications: int
    backend_exact: bool
    backend_version: int
    priority: int = 0
    plan: Dict[str, Any] = field(default_factory=dict)
    points: List[Dict[str, Any]] = field(default_factory=list)
    submitted: int = 0
    served_from_cache: int = 0
    coalesced: int = 0
    submitted_unix: float = 0.0
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    schema_version: int = JOB_SCHEMA_VERSION

    def to_json_dict(self) -> Dict[str, Any]:
        """The exact on-disk record schema."""
        return {
            "schema_version": self.schema_version,
            "job_id": self.job_id,
            "figure_id": self.figure_id,
            "name": self.name,
            "tenant": self.tenant,
            "preset": self.preset,
            "seed": self.seed,
            "backend": self.backend,
            "metric": self.metric,
            "title": self.title,
            "x_label": self.x_label,
            "replications": self.replications,
            "backend_exact": self.backend_exact,
            "backend_version": self.backend_version,
            "priority": self.priority,
            "plan": dict(self.plan),
            "points": [dict(point) for point in self.points],
            "submitted": self.submitted,
            "served_from_cache": self.served_from_cache,
            "coalesced": self.coalesced,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "JobRecord":
        """Rebuild a record, rejecting foreign schema versions."""
        if not isinstance(payload, dict):
            raise JobError(
                f"job record must be an object, got {type(payload).__name__}"
            )
        version = payload.get("schema_version")
        if version != JOB_SCHEMA_VERSION:
            raise JobError(
                f"job record schema version {version!r} is not readable by "
                f"this package (expected {JOB_SCHEMA_VERSION})"
            )
        try:
            return cls(
                job_id=payload["job_id"],
                figure_id=payload["figure_id"],
                name=str(payload.get("name", "")),
                tenant=str(payload.get("tenant", "default")),
                preset=payload["preset"],
                seed=int(payload["seed"]),
                backend=payload["backend"],
                metric=payload["metric"],
                title=str(payload.get("title", "")),
                x_label=str(payload.get("x_label", "")),
                replications=int(payload.get("replications", 0)),
                backend_exact=bool(payload.get("backend_exact", False)),
                backend_version=int(payload.get("backend_version", 0)),
                priority=int(payload.get("priority", 0)),
                plan=dict(payload.get("plan") or {}),
                points=[dict(point) for point in payload.get("points", [])],
                submitted=int(payload.get("submitted", 0)),
                served_from_cache=int(payload.get("served_from_cache", 0)),
                coalesced=int(payload.get("coalesced", 0)),
                submitted_unix=float(payload.get("submitted_unix", 0.0)),
                started_unix=payload.get("started_unix"),
                finished_unix=payload.get("finished_unix"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise JobError(f"malformed job record: {exc}") from exc

    def save(self, queue_dir: str) -> str:
        """Atomically (re)write the record; returns its path."""
        os.makedirs(jobs_dir(queue_dir), exist_ok=True)
        path = job_path(queue_dir, self.job_id)
        atomic_write_json(path, self.to_json_dict())
        return path


@dataclass
class JobStatus:
    """One poll of a job against the queue's results store."""

    record: JobRecord
    state: str  # "submitted" | "running" | "done"
    done: int
    total: int
    inflight: int
    pending: int

    @property
    def finished(self) -> bool:
        return self.state == "done"

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.record.job_id,
            "figure_id": self.record.figure_id,
            "tenant": self.record.tenant,
            "state": self.state,
            "done": self.done,
            "total": self.total,
            "inflight": self.inflight,
            "pending": self.pending,
            "submitted_unix": self.record.submitted_unix,
            "started_unix": self.record.started_unix,
            "finished_unix": self.record.finished_unix,
        }

    def render(self) -> str:
        """One human-readable status line."""
        return (
            f"job {self.record.job_id} ({self.record.figure_id}, "
            f"tenant {self.record.tenant}): {self.state} — "
            f"{self.done}/{self.total} point(s) answered, "
            f"{self.inflight} in flight, {self.pending} pending"
        )


def load_job(queue_dir: str, job_id: str) -> JobRecord:
    """Read and schema-validate one job record."""
    import json

    path = job_path(queue_dir, job_id)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise JobError(f"cannot read job record {path!r}: {exc}") from exc
    except ValueError as exc:
        raise JobError(f"job record {path!r} is not valid JSON: {exc}") from exc
    return JobRecord.from_json_dict(payload)


def list_jobs(queue_dir: str) -> List[str]:
    """Every job id with a record in the queue, sorted."""
    try:
        names = os.listdir(jobs_dir(queue_dir))
    except OSError:
        return []
    return sorted(
        name[: -len(".json")] for name in names if name.endswith(".json")
    )


def submit_job(
    queue_dir: str,
    figure_id: str,
    preset: str = "quick",
    seed: int = 0,
    max_points: Optional[int] = None,
    priority: int = 0,
    tenant: str = "default",
    name: Optional[str] = None,
    backend: Optional[str] = None,
    cache_dir: Optional[str] = None,
    job_id: Optional[str] = None,
    now: Callable[[], float] = time.time,
) -> JobRecord:
    """Submit one figure sweep as a named job; returns its record.

    The record, with every point's key, is saved before the first
    task is enqueued, so a worker that claims a task at once already
    finds its tenant; it is saved again with the counts at the end.
    Every point goes through :meth:`~repro.exec.queue.WorkQueue.enqueue`,
    the step a :class:`~repro.exec.QueueExecutor` submission takes, so
    executors and jobs share one schedule. A point whose cache key is
    already answered in the results store is counted
    ``served_from_cache`` and not enqueued; a key already queued
    (pending or in flight) is counted ``coalesced`` and ridden on.
    Custom (non-sweep) figures raise :class:`JobError` — they are
    solved, not swept, and have nothing to enqueue.
    """
    # Deferred imports: repro.service must stay importable without
    # dragging the whole experiments layer in at module import time.
    from ..experiments.config import plan_for
    from ..experiments.figures import FIGURE_SPECS
    from ..experiments.runner import build_sweep_tasks, sweep_eval_plan

    spec = FIGURE_SPECS.get(figure_id)
    if spec is None:
        raise JobError(
            f"unknown figure {figure_id!r}; known: "
            f"{', '.join(sorted(FIGURE_SPECS))}"
        )
    if spec.custom is not None:
        raise JobError(
            f"figure {figure_id!r} is not a sweep; the job API submits "
            "sweep points to workers and cannot run custom solvers"
        )
    backend_name = backend if backend is not None else spec.backend

    from ..backends import get_backend

    backend_obj = get_backend(backend_name)
    plan = plan_for(preset)
    points = list(spec.points())
    if max_points is not None:
        points = points[:max_points]
    eval_plan = sweep_eval_plan(spec.metric, plan, seed)
    tasks = build_sweep_tasks(
        points, eval_plan, seed, backend_name,
        cache_dir=cache_dir, priority=priority,
    )

    queue = WorkQueue(queue_dir)
    if job_id is None:
        job_id = f"{name or figure_id}-{uuid.uuid4().hex[:12]}"
    record = JobRecord(
        job_id=job_id,
        figure_id=figure_id,
        name=name or figure_id,
        tenant=tenant,
        preset=preset,
        seed=seed,
        backend=backend_name,
        metric=spec.metric,
        title=spec.title,
        x_label=spec.x_label,
        replications=plan.replications,
        backend_exact=backend_obj.capabilities.exact,
        backend_version=backend_obj.backend_version,
        priority=priority,
        plan=asdict(plan),
        submitted=len(tasks),
        submitted_unix=now(),
    )
    keys = [task.cache_key() for task in tasks]
    for task, point, key in zip(tasks, points, keys):
        record.points.append({
            "index": task.index,
            "series": point.series,
            "x": point.x,
            "key": key,
            "n_processors": point.params.n_processors,
        })
    record.save(queue_dir)

    reg = obs_metrics.registry()
    reg.counter(f"tenant.{tenant}.submitted").inc(len(tasks))
    for task, key in zip(tasks, keys):
        stored, enqueued = queue.enqueue(task, key)
        if stored is not None:
            record.served_from_cache += 1
            reg.counter(f"tenant.{tenant}.served_from_cache").inc()
        elif not enqueued:
            record.coalesced += 1
    record.save(queue_dir)
    write_metrics_snapshot(queue_dir, f"submit-{job_id}")
    return record


def job_status(
    queue_dir: str,
    job_id: str,
    now: Callable[[], float] = time.time,
) -> JobStatus:
    """Poll one job against the results store; never blocks a worker.

    A point is done when its key looks up in the results store (an
    unreadable entry is not done), in flight while a worker holds its
    claim, and pending otherwise. Updates the record's
    ``started_unix`` / ``finished_unix`` timestamps (best effort,
    atomic rewrite) as progress is first observed.
    """
    record = load_job(queue_dir, job_id)
    queue = WorkQueue(queue_dir)
    done = 0
    inflight = 0
    pending = 0
    for point in record.points:
        if queue.lookup(record.backend, point["key"]) is not None:
            done += 1
        elif queue.in_flight(point["key"]):
            inflight += 1
        else:
            pending += 1
    total = len(record.points)
    if done >= total and total > 0:
        state = "done"
    elif done or inflight:
        state = "running"
    else:
        state = "submitted"
    dirty = False
    if state in ("running", "done") and record.started_unix is None:
        record.started_unix = now()
        dirty = True
    if state == "done" and record.finished_unix is None:
        record.finished_unix = now()
        dirty = True
    if dirty:
        try:
            record.save(queue_dir)
        except OSError:
            pass  # a read-only queue still reports status
    return JobStatus(
        record=record, state=state, done=done, total=total,
        inflight=inflight, pending=pending,
    )


def collect_job(queue_dir: str, job_id: str):
    """Assemble the finished job's figure from the results store.

    Returns a :class:`~repro.experiments.runner.FigureResult`
    assembled exactly as :func:`~repro.experiments.runner.run_sweep`
    assembles one — same metric scaling, same sort, same
    unvalidated-interval stamp — so saving it produces an archive
    bit-identical to a serial run of the same figure. Raises
    :class:`JobError` naming the missing points when the job is not
    finished: a point whose stored result was pruned or is unreadable
    counts as missing, and re-submitting the job enqueues it again.
    """
    from ..experiments.runner import FigureResult

    record = load_job(queue_dir, job_id)
    queue = WorkQueue(queue_dir)
    stored = [
        queue.lookup(record.backend, point["key"]) for point in record.points
    ]
    missing = [
        point for point, result in zip(record.points, stored)
        if result is None
    ]
    if missing:
        shown = ", ".join(
            f"{p['series']!r}@x={p['x']:g}" for p in missing[:5]
        )
        raise JobError(
            f"job {job_id!r} is not finished: {len(missing)} of "
            f"{len(record.points)} point(s) unanswered ({shown}"
            + (", ..." if len(missing) > 5 else "") + ")"
        )
    figure = FigureResult(
        record.figure_id, record.title, record.x_label, record.metric,
        backend=record.backend,
    )
    if not record.backend_exact and record.replications < 2:
        figure.unvalidated_intervals = True
        figure.notes.append(
            f"UNVALIDATED intervals: stochastic backend {record.backend!r} "
            f"ran with {record.replications} replication(s); half-widths "
            "carry no statistical information and archive comparison will "
            "not claim interval overlap from them"
        )
    base_metric = DERIVED_METRICS.get(record.metric, record.metric)
    for point, result in zip(record.points, stored):
        value = result.metric(base_metric)
        x = point["x"]  # the record's raw x, type-preserving
        if record.metric == "total_useful_work":
            factor = point["n_processors"]
            entry = (x, value.mean * factor, value.half_width * factor)
        else:
            entry = (x, value.mean, value.half_width)
        figure.series.setdefault(point["series"], []).append(entry)
    for label in figure.series:
        figure.series[label].sort(key=lambda p: p[0])
    figure.manifest = RunManifest(
        figure_id=record.figure_id,
        backend=record.backend,
        backend_version=record.backend_version,
        metric=record.metric,
        seed=record.seed,
        preset=record.preset,
        plan=dict(record.plan),
        points_total=len(record.points),
        new_evaluations=0,
        metrics=obs_metrics.registry().snapshot(),
        execution={
            "executor": "service",
            "tasks_executed": 0,
            "collected_from_results_store": len(record.points),
            "job_id": record.job_id,
            "tenant": record.tenant,
        },
        notes=list(figure.notes),
    )
    return figure
