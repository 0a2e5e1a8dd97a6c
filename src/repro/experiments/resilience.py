"""Fault-tolerant sweep execution: checkpoint journal + supervisor.

The paper this repository reproduces models systems that survive
failures by periodically persisting partial state; this module makes
the *harness itself* practice that discipline. It provides the pieces
:func:`~repro.experiments.runner.run_sweep` composes:

* :class:`CheckpointJournal` — an append-only, fsync'd JSON-lines file
  holding one record per completed sweep point. An interrupted sweep
  resumes from its journal, simulating only the missing points; since
  every point's seed is derived from its position, the resumed figure
  is bit-identical to an uninterrupted run. Torn or corrupted tails
  (the harness-level analogue of a failure *during* checkpointing) are
  detected and truncated back to the last intact record.

* :class:`SweepSupervisor` — the one retry loop. It drives any
  :class:`~repro.exec.base.Executor` (serial, process pool,
  persistent queue — see :mod:`repro.exec`): each point is retried up
  to ``RetryPolicy.max_retries`` times with exponential backoff (each
  retry on a freshly derived seed stream so a poisoned sample path is
  not replayed); a point that exhausts its retries moves on to the
  next ``degrade_to`` fallback backend, and a point no backend could
  evaluate is recorded as a structured :class:`FailureReport` instead
  of aborting the sweep. Every retry, timeout, failure and
  degradation is logged as an event for the run manifest. Killing a
  hung point is the pool executor's job.

* :class:`ResilienceOptions` / :class:`RetryPolicy` — the
  configuration threaded from the CLI (``--resume``, ``--retries``,
  ``--point-timeout``, ``--degrade-to``, ...) down to the executive.

Determinism contract: a point's outcome depends only on its
``(params, plan, seed)``; the seed of attempt ``k`` is a stable hash
of ``(base_seed, k)``. Scheduling, pool size, resume and injected
faults therefore never change the *values* of points that succeed.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .._atomic import atomic_write
from ..exec.base import Executor, ExecutorError
from ..exec.task import (
    EvaluationTask,
    Outcome,
    derive_attempt_seed,
    failure_payload,
)

__all__ = [
    "CheckpointError",
    "CheckpointJournal",
    "FailureReport",
    "JournalState",
    "ResilienceOptions",
    "RetryPolicy",
    "SupervisorResult",
    "SweepSupervisor",
    "derive_attempt_seed",
    "failure_payload",
]

#: Failures that end a backend's attempts at once: retrying the same
#: request on the same backend cannot help.
PERMANENT_ERRORS = frozenset(
    {"UnsupportedMetricError", "UnsupportedParametersError"}
)

#: Failures logged as ``timeout`` events: the pool's kill of a hung
#: point and the kernel's cooperative wall-clock budget.
TIMEOUT_ERRORS = frozenset({"PointTimeout", "WallClockExceededError"})

#: Journal key of a point.
PointKey = Tuple[str, float]


class CheckpointError(RuntimeError):
    """The checkpoint journal cannot be used (fingerprint mismatch,
    unusable header, ...). Carries the journal path in the message."""


@dataclass
class FailureReport:
    """One sweep point that exhausted its retries.

    Attached to ``FigureResult.failures`` (and summarised into
    ``FigureResult.notes``) instead of aborting the sweep mid-run.
    """

    series: str
    x: float
    index: int
    attempts: int
    error_type: str
    error_message: str
    traceback: str = ""

    def summary(self) -> str:
        return (
            f"point {self.series!r} @ x={self.x:g} failed after "
            f"{self.attempts} attempt(s): {self.error_type}: {self.error_message}"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """How failed or hung points are retried.

    ``delay_for(attempt)`` is the backoff slept before attempt
    ``attempt`` (1-based for retries): ``backoff_base * backoff_factor
    ** (attempt - 1)``, capped at ``backoff_max``.
    """

    max_retries: int = 2
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_max: float = 30.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_max < 0:
            raise ValueError(f"backoff_max must be >= 0, got {self.backoff_max}")

    def delay_for(self, attempt: int) -> float:
        """Backoff (seconds) before the given retry attempt (>= 1)."""
        if attempt < 1:
            return 0.0
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )


@dataclass
class ResilienceOptions:
    """Sweep-level fault-tolerance configuration.

    Attributes
    ----------
    checkpoint_dir:
        Directory holding one ``<figure_id>.journal.jsonl`` per sweep.
        ``None`` disables checkpointing entirely.
    resume:
        When a journal exists, skip its completed points (default).
        ``False`` discards any existing journal and starts fresh.
    retry:
        The per-point retry/backoff policy.
    point_timeout:
        Wall-clock seconds one point attempt may run: the one
        deadline setting. Every executor gets it as the simulation's
        per-replication wall-clock budget, which is all the
        in-process executors (serial, queue) can enforce — a note on
        the figure records that — and the pool executor also kills a
        point still running after it.
    fault_plan:
        Optional :class:`~repro.experiments.faultinject.FaultPlan` or
        :class:`~repro.experiments.faultinject.BackendFaultPlan`
        applied around every evaluation, used by the tests, the chaos
        drill and the CI smoke jobs to inject crashes, hangs,
        corrupted results and mid-sweep aborts deterministically.
    cache_dir:
        Root of a content-addressed
        :class:`~repro.backends.cache.ResultCache`. Every evaluated
        point is stored under its canonical request hash and re-used
        by later sweeps that request the identical evaluation —
        unlike the journal (scoped to one sweep configuration), the
        cache is shared across figures, seeds and runs. ``None``
        disables caching.
    degrade_to:
        Fallback backend ids, in order. A point that exhausts its
        retries on one backend starts again, at attempt 0, on the
        next. A degraded value is labelled on the figure and never
        cached or journaled.
    """

    checkpoint_dir: Optional[str] = None
    resume: bool = True
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    point_timeout: Optional[float] = None
    fault_plan: Optional[Any] = None
    cache_dir: Optional[str] = None
    degrade_to: Tuple[str, ...] = ()


@dataclass
class JournalState:
    """What :meth:`CheckpointJournal.load` recovered."""

    outcomes: Dict[PointKey, Outcome] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


class CheckpointJournal:
    """Append-only JSON-lines journal of completed sweep points.

    Layout: a ``header`` record carrying a fingerprint of the sweep
    configuration, followed by one ``point`` record per completed
    point. Every append is flushed and fsync'd, so after a crash the
    journal holds every completed point except, at worst, a torn final
    line — which :meth:`load` detects and truncates.
    """

    VERSION = 1

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------
    @staticmethod
    def fingerprint(
        figure_id: str,
        metric: str,
        seed: int,
        plan: Any,
        point_signatures: Sequence[Tuple[str, float, str]],
        backend: str = "san-sim",
    ) -> str:
        """A stable digest of everything that determines point values.

        Two sweeps share a fingerprint iff resuming one from the
        other's journal is sound. Wall-clock budgets and retry
        policies are deliberately excluded: they affect *whether* a
        point completes, never its value. The event kernel is also
        excluded — the kernels are trajectory-preserving, so a journal
        written under one kernel resumes soundly under the other —
        but the evaluation *backend* is included: different backends
        legitimately produce different values for the same point.
        """
        import hashlib

        digest = hashlib.blake2b(digest_size=16)
        core = (
            figure_id,
            metric,
            int(seed),
            float(getattr(plan, "warmup", 0.0)),
            float(getattr(plan, "observation", 0.0)),
            int(getattr(plan, "replications", 1)),
            float(getattr(plan, "confidence", 0.95)),
        )
        if backend != "san-sim":
            # Appended conditionally so journals written before the
            # backend layer existed keep resuming under the default.
            core = core + (backend,)
        digest.update(repr(core).encode("utf-8"))
        for series, x, params_repr in point_signatures:
            digest.update(f"{series}\x00{x!r}\x00{params_repr}\n".encode("utf-8"))
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Reading / recovery
    # ------------------------------------------------------------------
    def load(self, expected_fingerprint: str) -> JournalState:
        """Recover completed points from an existing journal.

        * No journal: empty state.
        * Unreadable or corrupt header: the journal is discarded (a
          torn first write left nothing recoverable) with a note.
        * Fingerprint mismatch: :class:`CheckpointError` — resuming a
          different configuration would silently mix results.
        * Corrupt line after a valid prefix: the prefix is kept, the
          file is atomically truncated back to it, and a note records
          how many records were dropped.
        """
        state = JournalState()
        if not os.path.exists(self.path):
            return state
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if not lines:
            return state

        header: Optional[Dict[str, Any]] = None
        valid_lines: List[str] = []
        dropped = 0
        for position, line in enumerate(lines):
            record = self._parse_record(line)
            if record is None:
                dropped = len(lines) - position
                break
            if position == 0:
                if record.get("kind") != "header" or "fingerprint" not in record:
                    record = None
                    dropped = len(lines)
                    break
                header = record
            elif record.get("kind") == "point":
                state.outcomes[(record["series"], float(record["x"]))] = (
                    record["series"],
                    float(record["x"]),
                    float(record["mean"]),
                    float(record["half_width"]),
                )
            else:
                # Unknown record kind: treat as corruption from here on.
                dropped = len(lines) - position
                break
            valid_lines.append(line)

        if header is None:
            state.outcomes.clear()
            state.notes.append(
                f"checkpoint journal {self.path!r} had an unusable header; "
                "starting the sweep from scratch"
            )
            self.discard()
            return state
        if header["fingerprint"] != expected_fingerprint:
            raise CheckpointError(
                f"checkpoint journal {self.path!r} was written by a different "
                f"sweep configuration (journal fingerprint "
                f"{header['fingerprint']}, expected {expected_fingerprint}); "
                "pass resume=False (CLI: --no-resume) to discard it"
            )
        if dropped:
            state.notes.append(
                f"checkpoint journal {self.path!r}: dropped {dropped} corrupt "
                f"trailing line(s); kept {len(state.outcomes)} intact point(s)"
            )
            self._rewrite(valid_lines)
        return state

    @staticmethod
    def _parse_record(line: str) -> Optional[Dict[str, Any]]:
        line = line.strip()
        if not line:
            return None
        try:
            record = json.loads(line)
        except ValueError:
            return None
        if not isinstance(record, dict):
            return None
        if record.get("kind") == "point":
            required = ("series", "x", "mean", "half_width")
            if any(name not in record for name in required):
                return None
            if not isinstance(record["series"], str):
                return None
            try:
                float(record["x"]), float(record["mean"]), float(record["half_width"])
            except (TypeError, ValueError):
                return None
        return record

    def _rewrite(self, lines: Sequence[str]) -> None:
        """Atomically replace the journal with the given valid prefix."""
        atomic_write(
            self.path, "".join(line + "\n" for line in lines),
            prefix=".journal-",
        )

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def begin(self, fingerprint: str, meta: Dict[str, Any]) -> None:
        """Open the journal for appending, writing a header if new."""
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
        self._handle = open(self.path, "a", encoding="utf-8")
        if fresh:
            header = {"kind": "header", "version": self.VERSION,
                      "fingerprint": fingerprint}
            header.update(meta)
            self._append(header)

    def record_point(
        self,
        index: int,
        series: str,
        x: float,
        mean: float,
        half_width: float,
        attempt: int,
        seed_used: int,
    ) -> None:
        """Durably journal one completed point."""
        self._append(
            {
                "kind": "point",
                "index": index,
                "series": series,
                "x": x,
                "mean": mean,
                "half_width": half_width,
                "attempt": attempt,
                "seed_used": seed_used,
            }
        )

    def _append(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            raise CheckpointError(
                f"journal {self.path!r} is not open; call begin() first"
            )
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def discard(self) -> None:
        """Delete any existing journal file."""
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


@dataclass
class SupervisorResult:
    """Everything a supervised execution produced.

    ``attempts`` counts, per point index, every evaluation that ran:
    retries and fallback attempts included. ``events`` is the ordered
    log of retries, timeouts, failures and degradations, one dict per
    event with its ``kind`` and ``backend`` plus detail.
    ``execution`` is the executor's ``stats()`` snapshot (executor
    id, tasks executed, coalesced count, ...) taken when the run
    finished; the runner folds it into the manifest's ``execution``
    section. ``None`` when no task needed executing.
    """

    outcomes: Dict[int, Outcome] = field(default_factory=dict)
    failures: List[FailureReport] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    attempts: Dict[int, int] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)
    execution: Optional[Dict[str, Any]] = None

    def record(self, kind: str, backend: str, **detail: Any) -> None:
        """Append one event to :attr:`events`."""
        event: Dict[str, Any] = {"kind": kind, "backend": backend}
        event.update(detail)
        self.events.append(event)

    def resilience_section(self) -> Optional[Dict[str, Any]]:
        """The run manifest's ``resilience`` section: the events, their
        counts by kind and the ``from -> to`` degradation stamps.
        ``None`` when nothing happened."""
        if not self.events:
            return None
        by_kind: Dict[str, int] = {}
        degraded: List[str] = []
        for event in self.events:
            by_kind[event["kind"]] = by_kind.get(event["kind"], 0) + 1
            if event["kind"] == "degraded":
                degraded.append(f"{event['from']} -> {event['to']}")
        summary: Dict[str, Any] = {"by_kind": by_kind}
        if degraded:
            summary["degraded"] = degraded
        return {"events": list(self.events), "summary": summary}


class _PendingQueue:
    """Retry-aware work queue: FIFO of ready entries plus a delayed
    set whose backoff deadlines have not passed yet."""

    def __init__(self, indices: Sequence[int]) -> None:
        self.ready: Deque[Tuple[int, int]] = deque((i, 0) for i in indices)
        self.delayed: List[Tuple[float, int, int]] = []

    def __bool__(self) -> bool:
        return bool(self.ready) or bool(self.delayed)

    def promote(self, now: float) -> None:
        """Move delayed entries whose deadline passed into the ready queue."""
        due = [entry for entry in self.delayed if entry[0] <= now]
        if due:
            self.delayed = [e for e in self.delayed if e[0] > now]
            for _, index, attempt in sorted(due):
                self.ready.append((index, attempt))

    def defer(self, index: int, attempt: int, not_before: float) -> None:
        self.delayed.append((not_before, index, attempt))

    def next_deadline(self) -> Optional[float]:
        return min((e[0] for e in self.delayed), default=None)


class SweepSupervisor:
    """The one retry loop: runs point tasks to completion over any
    executor.

    The supervisor owns *policy* — which attempt to run next, when a
    failed attempt may retry (exponential backoff on a fresh derived
    seed), when a point moves on to a fallback backend, when it is
    declared failed for good — and delegates *mechanism* (processes,
    hang kills, persistence, dedup) to an
    :class:`~repro.exec.base.Executor`. It is the only code that
    advances a task's attempt number.

    Parameters
    ----------
    options:
        The :class:`ResilienceOptions` in effect. ``degrade_to`` is
        used as given: :func:`~repro.experiments.runner.run_sweep`
        checks the fallbacks against the sweep before passing them on.
        Its ``fault_plan`` reaches each evaluation through the
        executor, which was built with it.
    executor:
        The executor to drive, built by
        :func:`~repro.exec.base.make_executor` (or handed in ready-made
        by the caller of ``run_sweep``). The caller keeps ownership:
        the supervisor drains its results, stats and notes but does
        not ``close()`` it.
    on_success:
        Callback ``(task, outcome, attempt, seed_used) -> None`` fired
        (in the supervisor process) after each completed point with
        the task that produced it (a fallback task carries its
        fallback backend) — journal append, progress reporting and
        fault-plan abort hooks live there. Exceptions it raises
        propagate: an abort injected mid-sweep behaves exactly like
        the process being killed.
    clock / sleep:
        Injectable time source and sleep function for the retry
        backoff (defaults: ``time.monotonic``, ``time.sleep``). Tests
        drive backoff with a fake clock so CI never depends on real
        ``time.sleep`` margins.
    """

    def __init__(
        self,
        options: ResilienceOptions,
        executor: Executor,
        on_success: Optional[
            Callable[[EvaluationTask, Outcome, int, int], None]
        ] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.options = options
        self.on_success = on_success
        self._clock = clock
        self._sleep = sleep
        self._executor = executor

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[EvaluationTask]) -> SupervisorResult:
        """Drive every task to success or to exhausted retries on
        every backend."""
        result = SupervisorResult()
        if not tasks:
            return result
        by_index = {task.index: task for task in tasks}
        queue = _PendingQueue([task.index for task in tasks])

        executor = self._executor
        if (
            self.options.point_timeout is not None
            and not executor.capabilities.preemptive_timeout
        ):
            result.notes.append(
                "point_timeout is enforced cooperatively (as a simulation "
                f"wall-clock budget) by the {executor.capabilities.name!r} "
                "executor; use the pool executor to kill hung points"
            )
        try:
            self._drive(executor, queue, by_index, result)
        finally:
            result.execution = executor.stats()
            result.notes.extend(executor.notes)
            del executor.notes[:]
        return result

    def _drive(
        self,
        executor: Executor,
        queue: _PendingQueue,
        by_index: Dict[int, EvaluationTask],
        result: SupervisorResult,
    ) -> None:
        """The submit/backoff/collect loop shared by every executor."""
        primary = {index: task.backend for index, task in by_index.items()}
        fallbacks_used: Dict[int, int] = {}
        last_error: Dict[int, str] = {}
        results_iter = None
        stalled = False
        while queue or executor.pending:
            now = self._clock()
            queue.promote(now)
            while queue.ready:
                index, attempt = queue.ready.popleft()
                executor.submit(by_index[index].with_attempt(attempt))
            if executor.pending == 0:
                deadline = queue.next_deadline()
                if deadline is not None:
                    self._sleep(max(0.0, deadline - now))
                continue
            if results_iter is None:
                results_iter = executor.drain()
            task_result = next(results_iter, None)
            if task_result is None:
                # The drain generator ended; recreate it for the work
                # submitted since. Two consecutive empty drains with
                # work still pending means the executor is stuck.
                results_iter = None
                if stalled:
                    raise ExecutorError(
                        f"executor {executor.capabilities.name!r} reports "
                        f"{executor.pending} pending task(s) but its drain "
                        "yields nothing"
                    )
                stalled = True
                continue
            stalled = False
            task = by_index.get(task_result.index)
            if task is None:
                continue  # not ours (shared persistent queue)
            index = task.index
            attempt = task_result.attempt
            result.attempts[index] = result.attempts.get(index, 0) + 1
            if task_result.ok:
                if task.backend != primary[index]:
                    result.record(
                        "degraded", task.backend, cause=last_error[index],
                        **{"from": primary[index], "to": task.backend},
                    )
                result.outcomes[index] = task_result.outcome
                if self.on_success is not None:
                    self.on_success(
                        task, task_result.outcome, attempt,
                        derive_attempt_seed(task.base_seed, attempt),
                    )
                continue
            payload = task_result.failure or {}
            error_type = payload.get("error_type", "Exception")
            error = f"{error_type}: {payload.get('error_message', '')}"
            last_error[index] = error
            result.record(
                "timeout" if error_type in TIMEOUT_ERRORS else "failure",
                task.backend, attempt=attempt, error=error,
            )
            if self._retry(task, attempt, error_type, queue, result):
                continue
            stage = fallbacks_used.get(index, 0)
            if stage < len(self.options.degrade_to):
                # The next backend starts again at attempt 0 (the base
                # seed) and never writes to the cache.
                fallbacks_used[index] = stage + 1
                by_index[index] = replace(
                    task, backend=self.options.degrade_to[stage],
                    cache_dir=None,
                )
                queue.ready.append((index, 0))
                continue
            result.failures.append(
                FailureReport(
                    series=task.series,
                    x=float(task.x),
                    index=index,
                    attempts=result.attempts[index],
                    error_type=error_type,
                    error_message=payload.get("error_message", ""),
                    traceback=payload.get("traceback", ""),
                )
            )

    def _retry(
        self,
        task: EvaluationTask,
        attempt: int,
        error_type: str,
        queue: _PendingQueue,
        result: SupervisorResult,
    ) -> bool:
        """Schedule the next attempt of a failed one on the same
        backend; False when its retries there are spent."""
        retry = self.options.retry
        if attempt >= retry.max_retries or error_type in PERMANENT_ERRORS:
            return False
        delay = retry.delay_for(attempt + 1)
        result.record(
            "retry", task.backend, attempt=attempt + 1, delay=delay,
            seed=derive_attempt_seed(task.base_seed, attempt + 1),
        )
        queue.defer(task.index, attempt + 1, self._clock() + delay)
        return True
