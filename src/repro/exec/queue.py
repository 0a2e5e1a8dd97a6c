"""File-backed persistent work queue with dedup and priority order.

Layout under the queue directory::

    <queue_dir>/
      pending/   <priority:06d>-<counter:08d>-<cache_key>.json
      inflight/  same filename, moved here atomically while executing
      results/   <cache_key>.json   (ok TaskResult envelopes only)

Every file is written atomically (temp file + fsync + ``os.replace``,
the same discipline as the result cache and the journal) and a task
is *claimed* by an atomic rename from ``pending/`` to ``inflight/``,
so two drainers can share one queue directory without double-running
a task.

Deduplication: tasks are keyed by the canonical cache digest
(:meth:`~repro.exec.task.EvaluationTask.cache_key`). Submitting a key
that is already queued, already being waited on, or already answered
in the results store does not enqueue new work — the submission is
*coalesced*: it will be served from the single evaluation of that
key. Concurrent figures sharing points therefore evaluate each unique
point exactly once per queue.

Priority: lower ``task.priority`` values run first (then submission
order) — the lexicographic sort of the zero-padded filenames is the
schedule. The FIFO tie-break counter is *persistent*: the next value
is derived from the highest counter visible in ``pending/`` +
``inflight/`` and a ``counter`` file next to them (updated
atomically), so submission order survives restarts and holds across
processes sharing one queue directory.

Crash recovery is lease-based: while a drainer executes a claimed
task it *heartbeats* the in-flight file's mtime (a touch every
``orphan_age / HEARTBEAT_DIVISOR`` seconds from the executing
process), so the file's mtime is a live lease, not a creation stamp.
The janitor requeues in-flight files whose lease actually expired —
older than :data:`INFLIGHT_SWEEP_AGE_SECONDS` since the *last
heartbeat* — back into ``pending/``, publishing the count as the
``queue.orphans_requeued`` metric. A slow task with a live heartbeat
is never requeued; a claim whose drainer crashed stops beating and
is.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import deque
from dataclasses import replace
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

from ..obs import metrics as obs_metrics
from . import task as _task
from .base import ExecutorCapabilities
from .task import EvaluationTask, TaskError, TaskResult

__all__ = [
    "INFLIGHT_SWEEP_AGE_SECONDS",
    "HEARTBEAT_DIVISOR",
    "InflightLease",
    "QueueExecutor",
    "atomic_write_json",
    "claim_next_pending",
    "next_counter",
    "pending_name",
    "sweep_orphaned_inflight",
]

#: Minimum age (seconds since the last heartbeat touch) before a
#: claimed task file in ``inflight/`` is considered orphaned by a
#: crashed drainer and requeued.
INFLIGHT_SWEEP_AGE_SECONDS = 60.0

#: A live drainer touches its claimed file every
#: ``orphan_age / HEARTBEAT_DIVISOR`` seconds, so a healthy lease is
#: always several beats fresher than the janitor's threshold.
HEARTBEAT_DIVISOR = 3.0


# ----------------------------------------------------------------------
# Shared file plumbing (used by QueueExecutor and repro.service.worker)
# ----------------------------------------------------------------------
def atomic_write_json(path: str, payload: Any) -> None:
    """Write ``payload`` as JSON via temp file + fsync + ``os.replace``
    (the same crash discipline as the result cache and the journal)."""
    directory = os.path.dirname(path)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".queue-", suffix=".json.tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def pending_name(priority: int, counter: int, key: str) -> str:
    """The schedule-bearing filename of one queued task."""
    return f"{max(0, priority):06d}-{counter:08d}-{key}.json"


def _scan_max_counter(directories: Tuple[str, ...]) -> int:
    """Highest FIFO counter embedded in any queued filename (-1 when
    none are queued)."""
    highest = -1
    for directory in directories:
        try:
            names = os.listdir(directory)
        except OSError:
            continue
        for name in names:
            parts = name.split("-", 2)
            if len(parts) != 3 or not name.endswith(".json"):
                continue
            try:
                highest = max(highest, int(parts[1]))
            except ValueError:
                continue
    return highest


def next_counter(queue_dir: str, pending_dir: str, inflight_dir: str) -> int:
    """Allocate the next FIFO tie-break counter for ``queue_dir``.

    The value is ``max(persisted counter file, highest counter still
    queued + 1)`` — never a per-process zero — so submission order
    survives restarts and holds across processes sharing the
    directory. The ``counter`` file is advanced atomically; a lost
    update between two racing submitters is caught by the directory
    scan as long as the earlier submission is still queued, which is
    the only window in which relative order matters.
    """
    counter_path = os.path.join(queue_dir, "counter")
    persisted = 0
    try:
        with open(counter_path, "r", encoding="utf-8") as handle:
            persisted = int(handle.read().strip() or 0)
    except (OSError, ValueError):
        persisted = 0
    value = max(persisted, _scan_max_counter((pending_dir, inflight_dir)) + 1)
    try:
        atomic_write_json(counter_path, value + 1)
    except OSError:
        pass  # a read-only queue still orders by the directory scan
    return value


def claim_next_pending(pending_dir: str, inflight_dir: str) -> Optional[str]:
    """Atomically move the first pending file to ``inflight/``.

    Returns the claimed in-flight path, or ``None`` when nothing is
    claimable. Losing a rename race to another drainer just moves on
    to the next file — two drainers can never claim the same task.
    """
    try:
        names = sorted(os.listdir(pending_dir))
    except OSError:
        return None
    for name in names:
        if not name.endswith(".json"):
            continue
        source = os.path.join(pending_dir, name)
        target = os.path.join(inflight_dir, name)
        try:
            os.replace(source, target)
        except OSError:
            continue  # another drainer claimed it first
        return target
    return None


def sweep_orphaned_inflight(
    pending_dir: str,
    inflight_dir: str,
    orphan_age: float,
    clock: Callable[[], float] = time.time,
) -> int:
    """Requeue in-flight files whose lease expired; returns the count.

    The mtime of a claimed file is a *lease*: live drainers heartbeat
    it (see :class:`InflightLease`), so only a claim whose drainer
    stopped beating for ``orphan_age`` seconds is requeued. A slow
    task under a live heartbeat is never double-run.
    """
    requeued = 0
    now = clock()
    try:
        names = sorted(os.listdir(inflight_dir))
    except OSError:
        return 0
    for name in names:
        path = os.path.join(inflight_dir, name)
        try:
            age = now - os.path.getmtime(path)
            if age >= orphan_age:
                os.replace(path, os.path.join(pending_dir, name))
                requeued += 1
        except OSError:
            continue  # raced with another janitor or drainer: fine
    if requeued:
        obs_metrics.registry().counter("queue.orphans_requeued").inc(requeued)
    return requeued


class InflightLease:
    """Heartbeat a claimed in-flight file while its task executes.

    A context manager: entering starts a daemon thread touching the
    file's mtime every ``orphan_age / HEARTBEAT_DIVISOR`` seconds (no
    thread when ``orphan_age <= 0`` — the immediate-requeue escape
    hatch used by tests has no lease to keep alive); exiting stops it.
    ``beat()`` is also callable directly for deterministic tests. A
    touch on a file that vanished (the task finished and was unlinked,
    or a rogue janitor moved it) is silently ignored.
    """

    def __init__(
        self,
        path: str,
        orphan_age: float,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = path
        self.interval = (
            orphan_age / HEARTBEAT_DIVISOR if orphan_age > 0 else 0.0
        )
        self._clock = clock
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def beat(self) -> None:
        """Touch the claimed file's mtime (one heartbeat)."""
        now = self._clock()
        try:
            os.utime(self.path, (now, now))
        except OSError:
            pass

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.beat()

    def __enter__(self) -> "InflightLease":
        if self.interval > 0:
            self._thread = threading.Thread(
                target=self._loop, name="inflight-lease", daemon=True
            )
            self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval + 1.0)
            self._thread = None


class QueueExecutor:
    """Persistent on-disk queue executor with coalescing."""

    capabilities = ExecutorCapabilities(
        name="queue",
        parallel=False,
        preemptive_timeout=False,
        persistent=True,
        deduplicates=True,
    )

    def __init__(
        self,
        queue_dir: str,
        fault_plan: Optional[Any] = None,
        run_task: Optional[Callable[..., TaskResult]] = None,
        orphan_age: float = INFLIGHT_SWEEP_AGE_SECONDS,
        clock: Callable[[], float] = time.time,
    ) -> None:
        """Queue executor rooted at ``queue_dir`` (created if missing).

        The queue executes in-process, like the serial executor, so
        it takes no timeout (a sweep's ``point_timeout`` arrives as
        the task plan's wall-clock budget); ``fault_plan`` is
        forwarded to every task; ``orphan_age`` overrides the
        janitor's lease threshold (tests use 0 to requeue immediately
        — which also disables the heartbeat). ``run_task`` is the test
        seam over :func:`~repro.exec.task.execute_task`; ``clock`` the
        wall clock the janitor and heartbeat share (epoch seconds,
        comparable to file mtimes).
        """
        self.queue_dir = queue_dir
        self.notes: List[str] = []
        self._pending_dir = os.path.join(queue_dir, "pending")
        self._inflight_dir = os.path.join(queue_dir, "inflight")
        self._results_dir = os.path.join(queue_dir, "results")
        for directory in (
            self._pending_dir, self._inflight_dir, self._results_dir
        ):
            os.makedirs(directory, exist_ok=True)
        self._fault_plan = fault_plan
        self._run_task = run_task
        self._orphan_age = orphan_age
        self._clock = clock
        self._waiters: Dict[str, List[EvaluationTask]] = {}
        self._served: Deque[Tuple[EvaluationTask, TaskResult]] = deque()
        self._executed = 0
        self._coalesced = 0
        self._orphans_requeued = 0
        self._depth_high_water = 0
        self._sweep_orphaned_inflight()

    # ------------------------------------------------------------------
    # Janitor
    # ------------------------------------------------------------------
    def _sweep_orphaned_inflight(self) -> None:
        """Requeue task files whose lease expired (crashed drainer)."""
        requeued = sweep_orphaned_inflight(
            self._pending_dir, self._inflight_dir, self._orphan_age,
            clock=self._clock,
        )
        if requeued:
            self._orphans_requeued = requeued
            self.notes.append(
                f"work queue janitor: requeued {requeued} orphaned "
                f"in-flight task(s) in {self.queue_dir}"
            )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, task: EvaluationTask) -> None:
        """Enqueue one task, coalescing on its cache key.

        A key already being waited on, already queued on disk, or
        already answered in the results store is not enqueued again;
        the submission is counted as coalesced and served from the
        single evaluation of that key.
        """
        key = task.cache_key()
        waiters = self._waiters.get(key)
        if waiters is not None:
            waiters.append(task)
            self._coalesced += 1
            return
        stored = self._load_stored(key)
        if stored is not None:
            self._served.append((task, stored))
            self._coalesced += 1
            return
        self._waiters[key] = [task]
        if self._queued_files(key):
            # Persisted by an earlier (possibly crashed) submitter:
            # ride on that file instead of enqueueing a duplicate.
            self._coalesced += 1
        else:
            self._write_pending(task, key)
        depth = len(os.listdir(self._pending_dir)) + len(
            os.listdir(self._inflight_dir)
        )
        self._depth_high_water = max(self._depth_high_water, depth)

    @property
    def pending(self) -> int:
        """Submissions not yet yielded by :meth:`drain`."""
        return sum(len(w) for w in self._waiters.values()) + len(self._served)

    # ------------------------------------------------------------------
    # File plumbing
    # ------------------------------------------------------------------
    def _queued_files(self, key: str) -> List[str]:
        suffix = f"-{key}.json"
        found = []
        for directory in (self._pending_dir, self._inflight_dir):
            for name in os.listdir(directory):
                if name.endswith(suffix):
                    found.append(os.path.join(directory, name))
        return found

    def _write_pending(self, task: EvaluationTask, key: str) -> None:
        counter = next_counter(
            self.queue_dir, self._pending_dir, self._inflight_dir
        )
        name = pending_name(task.priority, counter, key)
        atomic_write_json(
            os.path.join(self._pending_dir, name), task.to_json_dict()
        )

    def _load_stored(self, key: str) -> Optional[TaskResult]:
        path = os.path.join(self._results_dir, f"{key}.json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            return TaskResult.from_json_dict(payload)
        except (OSError, ValueError, TaskError):
            return None  # absent or unreadable: evaluate fresh

    def _store_result(self, key: str, result: TaskResult) -> None:
        try:
            atomic_write_json(
                os.path.join(self._results_dir, f"{key}.json"),
                result.to_json_dict(),
            )
        except OSError:
            pass  # a full or read-only store must not fail the task

    def _claim_next(self) -> Optional[str]:
        """Atomically move the first pending file to ``inflight/``."""
        return claim_next_pending(self._pending_dir, self._inflight_dir)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run(self, task: EvaluationTask) -> TaskResult:
        runner = self._run_task
        if runner is None:
            runner = _task.execute_task
        self._executed += 1
        return runner(task, self._fault_plan)

    def _dispatch(self, key: str, result: TaskResult) -> List[TaskResult]:
        """Stamp one evaluation's result onto every waiting submission."""
        waiters = self._waiters.pop(key, [])
        stamped = []
        for position, waiter in enumerate(waiters):
            stamped.append(
                replace(
                    result,
                    index=waiter.index,
                    series=waiter.series,
                    x=waiter.x,
                    attempt=waiter.attempt,
                    coalesced=position > 0,
                )
            )
        return stamped

    def drain(self) -> Iterator[TaskResult]:
        """Execute queued tasks in priority order; yield results for
        every local submission (coalesced ones included) until none
        remain waiting. Queued tasks belonging to other submitters are
        executed and stored but not yielded."""
        while self._waiters or self._served:
            while self._served:
                waiter, stored = self._served.popleft()
                yield replace(
                    stored,
                    index=waiter.index,
                    series=waiter.series,
                    x=waiter.x,
                    attempt=waiter.attempt,
                    coalesced=True,
                )
            if not self._waiters:
                continue
            claimed = self._claim_next()
            if claimed is None:
                # Waiters remain but no file is claimable (lost to a
                # crash before the janitor threshold, or claimed by a
                # foreign drainer that died): evaluate from the
                # in-memory submission so the sweep always completes.
                key = next(iter(self._waiters))
                result = self._run(self._waiters[key][0])
                if result.ok:
                    self._store_result(key, result)
                for stamped in self._dispatch(key, result):
                    yield stamped
                continue
            try:
                with open(claimed, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                task = EvaluationTask.from_json_dict(payload)
            except (OSError, ValueError, TaskError) as exc:
                self.notes.append(
                    f"work queue: dropped unreadable task file "
                    f"{os.path.basename(claimed)} ({exc})"
                )
                try:
                    os.unlink(claimed)
                except OSError:
                    pass
                continue
            key = task.cache_key()
            # Heartbeat the claim while it runs: another drainer's
            # janitor must see a live lease, however slow the task.
            with InflightLease(claimed, self._orphan_age, self._clock):
                result = self._run(task)
            if result.ok:
                self._store_result(key, result)
            try:
                os.unlink(claimed)
            except OSError:
                pass
            for stamped in self._dispatch(key, result):
                yield stamped

    def close(self) -> None:
        """Nothing to release — the queue directory *is* the state."""

    def stats(self) -> Dict[str, Any]:
        """Counters for the run manifest's ``execution`` section."""
        return {
            "executor": self.capabilities.name,
            "tasks_executed": self._executed,
            "coalesced": self._coalesced,
            "queue_depth_high_water": self._depth_high_water,
            "orphans_requeued": self._orphans_requeued,
        }
