"""Versioned run manifests: one JSON document per figure run.

A manifest makes a figure *attributable*: it records what produced
the numbers (backend id and version, package version, best-effort git
describe), how (plan, RNG seed policy), and at what cost (points
evaluated vs reused from cache or journal, retries, failures, kernel
statistics, wall clock). It is written atomically next to the figure
archive as ``<figure_id>.manifest.json``, and ``python -m repro obs``
re-validates and renders it.

Schema changes bump :data:`MANIFEST_SCHEMA_VERSION`; loaders reject
foreign versions with :class:`ManifestError` rather than misreading
them — the same discipline as the evaluation-result and figure-archive
schemas.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .._atomic import atomic_write
from .._version import __version__

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "ManifestError",
    "RunManifest",
    "git_describe",
    "manifest_path",
    "write_manifest",
    "load_manifest",
    "render_manifest",
    "render_metrics_snapshot",
]

#: Version of the run-manifest JSON schema.
MANIFEST_SCHEMA_VERSION = 1


class ManifestError(ValueError):
    """A manifest is missing, malformed, or of a foreign schema."""


def git_describe() -> Optional[str]:
    """Best-effort ``git describe`` of the source tree this package
    runs from; ``None`` when not a checkout (installed wheel, no git).
    Never raises — provenance is recorded when available, not required.
    """
    try:
        completed = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    described = completed.stdout.strip()
    return described or None


@dataclass
class RunManifest:
    """Everything needed to attribute and audit one figure run.

    Attributes
    ----------
    figure_id:
        The figure this run regenerated.
    backend / backend_version:
        The evaluation backend that produced every point.
    metric:
        The y-axis metric requested.
    seed:
        Root random seed; per-point and per-retry derivation is
        recorded in ``seed_policy``.
    plan:
        The simulation plan as a plain dictionary (warmup,
        observation, replications, confidence, kernel).
    points_total:
        Points the sweep declared.
    points_from_journal / points_from_cache:
        Points reused (checkpoint resume; content-addressed cache).
    new_evaluations:
        Points actually evaluated by this run — **zero on a warm
        cache**, the property the CI smoke job asserts.
    retries:
        Extra attempts beyond each point's first (fault tolerance).
    failed_points:
        Points that exhausted their retries.
    kernel_stats:
        Aggregated :class:`~repro.san.profiling.KernelStats` as a
        dictionary (serial sweeps; ``None`` when workers hid them).
    metrics:
        Snapshot of the supervisor-process metrics registry.
    trace:
        Summary of the trace sink, when one was installed.
    wall_clock_seconds:
        Real time the whole run took.
    validation:
        Optional summary of a :mod:`repro.validate` run covering this
        configuration (the ``to_json_dict`` of a
        :class:`~repro.validate.report.ValidationReport`); ``None``
        when no validation accompanied the run.
    resilience:
        Optional record of the sweep supervisor's recovery activity
        (see :meth:`~repro.experiments.resilience.SupervisorResult.resilience_section`),
        on every executor: the structured event list — every
        timeout, failure, retry and fallback — plus a by-kind summary
        and the ``from -> to`` degradation stamps. ``None`` when
        nothing happened. The field is additive and optional, so the
        schema version is unchanged: old manifests load as ``None``,
        and readers that predate it simply ignore the key.
    execution:
        Optional record of how the run's tasks were executed (see
        :mod:`repro.exec`): the executor id, tasks executed, coalesced
        submissions and queue depth high-water (queue executor),
        timeouts and pool restarts (pool executor), plus the
        per-point attempt counts. Additive and optional exactly like
        ``resilience``: the schema version is unchanged, old
        manifests load as ``None``.
    """

    figure_id: str
    backend: Optional[str] = None
    backend_version: Optional[int] = None
    metric: str = ""
    seed: int = 0
    seed_policy: str = (
        "point i uses seed+i; retry k uses stable_stream_key('retry/<seed>/<k>')"
    )
    preset: Optional[str] = None
    plan: Dict[str, Any] = field(default_factory=dict)
    points_total: int = 0
    points_from_journal: int = 0
    points_from_cache: int = 0
    new_evaluations: int = 0
    retries: int = 0
    failed_points: int = 0
    kernel_stats: Optional[Dict[str, Any]] = None
    metrics: Dict[str, Any] = field(default_factory=dict)
    trace: Optional[Dict[str, Any]] = None
    wall_clock_seconds: float = 0.0
    validation: Optional[Dict[str, Any]] = None
    resilience: Optional[Dict[str, Any]] = None
    execution: Optional[Dict[str, Any]] = None
    notes: List[str] = field(default_factory=list)
    schema_version: int = MANIFEST_SCHEMA_VERSION
    repro_version: str = __version__
    git_version: Optional[str] = None
    created_unix: float = 0.0

    def to_json_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (the exact on-disk schema)."""
        return {
            "schema_version": self.schema_version,
            "repro_version": self.repro_version,
            "git_version": self.git_version,
            "created_unix": self.created_unix,
            "figure_id": self.figure_id,
            "backend": self.backend,
            "backend_version": self.backend_version,
            "metric": self.metric,
            "seed": self.seed,
            "seed_policy": self.seed_policy,
            "preset": self.preset,
            "plan": dict(self.plan),
            "points": {
                "total": self.points_total,
                "from_journal": self.points_from_journal,
                "from_cache": self.points_from_cache,
                "new_evaluations": self.new_evaluations,
                "retries": self.retries,
                "failed": self.failed_points,
            },
            "kernel_stats": self.kernel_stats,
            "metrics": self.metrics,
            "trace": self.trace,
            "wall_clock_seconds": self.wall_clock_seconds,
            "validation": self.validation,
            "resilience": self.resilience,
            "execution": self.execution,
            "notes": list(self.notes),
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "RunManifest":
        """Rebuild a manifest, rejecting foreign schema versions."""
        if not isinstance(payload, dict):
            raise ManifestError(
                f"manifest payload must be an object, got {type(payload).__name__}"
            )
        version = payload.get("schema_version")
        if version != MANIFEST_SCHEMA_VERSION:
            raise ManifestError(
                f"manifest has schema version {version!r}; this package "
                f"reads version {MANIFEST_SCHEMA_VERSION}"
            )
        if not isinstance(payload.get("figure_id"), str) or not payload["figure_id"]:
            raise ManifestError("manifest lacks a figure_id")
        points = payload.get("points") or {}
        if not isinstance(points, dict):
            raise ManifestError("manifest 'points' must be an object")
        try:
            return cls(
                figure_id=payload["figure_id"],
                backend=payload.get("backend"),
                backend_version=payload.get("backend_version"),
                metric=str(payload.get("metric", "")),
                seed=int(payload.get("seed", 0)),
                seed_policy=str(payload.get("seed_policy", "")),
                preset=payload.get("preset"),
                plan=dict(payload.get("plan") or {}),
                points_total=int(points.get("total", 0)),
                points_from_journal=int(points.get("from_journal", 0)),
                points_from_cache=int(points.get("from_cache", 0)),
                new_evaluations=int(points.get("new_evaluations", 0)),
                retries=int(points.get("retries", 0)),
                failed_points=int(points.get("failed", 0)),
                kernel_stats=payload.get("kernel_stats"),
                metrics=dict(payload.get("metrics") or {}),
                trace=payload.get("trace"),
                wall_clock_seconds=float(payload.get("wall_clock_seconds", 0.0)),
                validation=payload.get("validation"),
                resilience=payload.get("resilience"),
                execution=payload.get("execution"),
                notes=[str(note) for note in payload.get("notes", [])],
                schema_version=MANIFEST_SCHEMA_VERSION,
                repro_version=str(payload.get("repro_version", "")),
                git_version=payload.get("git_version"),
                created_unix=float(payload.get("created_unix", 0.0)),
            )
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"malformed manifest: {exc}") from exc


def manifest_path(directory: str, figure_id: str) -> str:
    """Where the manifest of one figure lives inside an archive dir."""
    return os.path.join(directory, f"{figure_id}.manifest.json")


def write_manifest(manifest: RunManifest, directory: str) -> str:
    """Atomically write one manifest next to its figure archive.

    Stamps ``created_unix`` and ``git_version`` if the caller did not.
    Temp file + fsync + rename, the same crash discipline as the
    figure archive and the result cache.
    """
    if not manifest.created_unix:
        manifest.created_unix = time.time()
    if manifest.git_version is None:
        manifest.git_version = git_describe()
    os.makedirs(directory, exist_ok=True)
    path = manifest_path(directory, manifest.figure_id)
    atomic_write(
        path,
        json.dumps(manifest.to_json_dict(), indent=2, sort_keys=True) + "\n",
        prefix=f".{manifest.figure_id}.manifest.",
    )
    return path


def load_manifest(path: str) -> RunManifest:
    """Read and schema-validate a manifest written by
    :func:`write_manifest`; raises :class:`ManifestError` naming the
    path on any problem."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path!r}: {exc}") from exc
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ManifestError(f"manifest {path!r} is not valid JSON: {exc}") from exc
    try:
        return RunManifest.from_json_dict(payload)
    except ManifestError as exc:
        raise ManifestError(f"manifest {path!r}: {exc}") from exc


def render_manifest(manifest: RunManifest) -> str:
    """Human-readable report (the ``repro obs`` command's output)."""
    provenance = manifest.repro_version or "?"
    if manifest.git_version:
        provenance += f" ({manifest.git_version})"
    lines = [
        f"figure: {manifest.figure_id}",
        f"  backend: {manifest.backend or '(custom)'}"
        + (
            f" v{manifest.backend_version}"
            if manifest.backend_version is not None
            else ""
        ),
        f"  metric: {manifest.metric or '-'}   seed: {manifest.seed}"
        + (f"   preset: {manifest.preset}" if manifest.preset else ""),
        f"  repro: {provenance}",
        f"  points: {manifest.points_total} total = "
        f"{manifest.points_from_journal} journal + "
        f"{manifest.points_from_cache} cache + "
        f"{manifest.new_evaluations} evaluated"
        f" ({manifest.retries} retries, {manifest.failed_points} failed)",
        f"  wall clock: {manifest.wall_clock_seconds:.2f} s",
    ]
    if manifest.plan:
        plan_bits = ", ".join(
            f"{key}={value}" for key, value in sorted(manifest.plan.items())
            if value is not None
        )
        lines.append(f"  plan: {plan_bits}")
    if manifest.kernel_stats:
        events = manifest.kernel_stats.get("events", 0)
        eps = manifest.kernel_stats.get("events_per_sec", 0.0)
        line = f"  kernel: {events} events, {eps:,.0f} events/s"
        # Manifests written before the replay have no such key.
        deferred = manifest.kernel_stats.get("deferred_firings")
        if deferred is not None:
            line += f", {deferred} deferred"
        lines.append(line)
    if manifest.trace:
        lines.append(
            f"  trace: {manifest.trace.get('written', 0)} events -> "
            f"{manifest.trace.get('path', '?')}"
        )
    if manifest.validation:
        verdict = "PASS" if manifest.validation.get("passed") else "FAIL"
        differential = manifest.validation.get("differential") or {}
        lines.append(
            f"  validation: {verdict} "
            f"(seed {manifest.validation.get('seed', '?')}, "
            f"{differential.get('cases', 0)} differential case(s), "
            f"{differential.get('disagreements', 0)} disagreement(s))"
        )
    if manifest.resilience:
        summary = manifest.resilience.get("summary") or {}
        by_kind = summary.get("by_kind") or {}
        shown = ", ".join(
            f"{kind}={count}" for kind, count in sorted(by_kind.items())
        )
        lines.append(
            f"  resilience: {len(manifest.resilience.get('events') or [])} "
            f"event(s)" + (f" ({shown})" if shown else "")
        )
        for stamp in summary.get("degraded") or []:
            lines.append(f"  degraded: {stamp}")
    if manifest.execution:
        execution = manifest.execution
        line = (
            f"  execution: {execution.get('executor', '?')} executor, "
            f"{execution.get('tasks_executed', 0)} task(s) executed"
        )
        if execution.get("coalesced"):
            line += f", {execution['coalesced']} coalesced"
        if execution.get("queue_depth_high_water"):
            line += (
                f", queue depth high-water "
                f"{execution['queue_depth_high_water']}"
            )
        if execution.get("orphans_requeued"):
            line += f", {execution['orphans_requeued']} orphan(s) requeued"
        if execution.get("timeouts"):
            line += f", {execution['timeouts']} timeout(s)"
        lines.append(line)
        retried = {
            index: count
            for index, count in (execution.get("attempts") or {}).items()
            if isinstance(count, int) and count > 1
        }
        if retried:
            shown = ", ".join(
                f"point {index}: {count} attempts"
                for index, count in sorted(
                    retried.items(), key=lambda item: int(item[0])
                )
            )
            lines.append(f"  attempts: {shown}")
    counters = manifest.metrics.get("counters") if manifest.metrics else None
    if counters:
        shown = ", ".join(
            f"{name}={value}" for name, value in sorted(counters.items()) if value
        )
        if shown:
            lines.append(f"  metrics: {shown}")
    for note in manifest.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def render_metrics_snapshot(payload: Dict[str, Any]) -> str:
    """Human-readable report of one metrics snapshot (the
    ``--metrics-out`` / service worker ``*.metrics.json`` format):
    counters, gauges and timing summaries."""
    lines: List[str] = []
    for section in ("counters", "gauges"):
        values = payload.get(section) or {}
        if values:
            lines.append(f"{section}:")
            for name, value in sorted(values.items()):
                lines.append(f"  {name:<40} {value}")
    timings = payload.get("timings") or {}
    if timings:
        lines.append("timings:")
        for name, summary in sorted(timings.items()):
            lines.append(
                f"  {name:<40} n={summary.get('count', 0)} "
                f"total={summary.get('total_seconds', 0.0):.3f}s "
                f"mean={summary.get('mean_seconds', 0.0):.4f}s"
            )
    return "\n".join(lines)
