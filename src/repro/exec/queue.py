"""File-backed persistent work queue with dedup, shared by a sweep and
its workers.

This module is the only code that knows how a queue directory is laid
out::

    <queue_dir>/
      pending/   000000-<counter:08d>-<cache_key>.json
      inflight/  same filename, moved here atomically while executing
      results/   a ResultCache root: <backend>/<key[:2]>/<key>.json
      counter    persisted FIFO counter

:class:`WorkQueue` owns that layout and the steps every user of a
queue directory shares — :class:`QueueExecutor` (a ``run-figure
--executor queue`` sweep) and the service worker
(:mod:`repro.service.worker`, ``repro worker``):

* **enqueue** (:meth:`WorkQueue.enqueue`): coalesce on a key that is
  answered, queued or in flight, else take the next counter and write
  the pending file;
* **claim and run** (:meth:`WorkQueue.claim` /
  :meth:`WorkQueue.run_claim`): decode the claimed task, heartbeat the
  claim while it runs, store an ok result, drop the claim — or, when
  the run raises (Ctrl-C), move the claim back to ``pending/``;
* **lookup** (:meth:`WorkQueue.lookup`): the stored result of a key.

``results/`` is a :class:`~repro.backends.cache.ResultCache` root. It
holds the ok results of whatever the queue ran, each under the key of
the backend that ran it, as the same
:class:`~repro.backends.base.EvaluationResult` files a ``--cache-dir``
holds: reads and writes count in the ``cache.*`` counters, ``repro
cache prune`` maintains it, and an absent, pruned or unreadable entry
is a miss that is evaluated again. Failures are never stored.

Every file is written atomically (temp file + fsync + ``os.replace``)
and a task is *claimed* by an atomic rename from ``pending/`` to
``inflight/``, so two drainers can never claim the same task.

Deduplication: tasks are keyed by the canonical cache digest
(:meth:`~repro.exec.task.EvaluationTask.cache_key`). Submitting a key
that is already queued, already being waited on, or already answered
in the results store does not enqueue new work — the submission is
*coalesced*: it will be served from the single evaluation of that
key. Concurrent figures sharing points therefore evaluate each unique
point exactly once per queue.

Order: submission order — the lexicographic sort of the filenames is
the schedule. The leading field is always ``000000``; older versions
wrote a queue priority there, and a queue directory they left still
sorts and reads as before. The counter is *persistent*: the next value
is derived from the highest counter visible in ``pending/`` +
``inflight/`` and the ``counter`` file (updated atomically), so
submission order survives restarts and holds across processes sharing
one queue directory.

A sweep waits for the drainers beside it. When nothing is claimable,
:meth:`QueueExecutor.drain` goes through its waiting keys in
submission order: a key with a task file in ``pending/`` or
``inflight/`` is held (a pending file is a race the next claim takes,
an in-flight one is another drainer's lease) and left alone; a key
with no task file is looked up in ``results/`` — another drainer
answered it — and only a key with neither is evaluated from the
in-memory submission (the other drainer's run failed, or its task file
was unreadable and dropped). While every waiting key is held, the
sweep runs the janitor and polls every :data:`POLL_INTERVAL_SECONDS`.

Crash recovery is lease-based: while a drainer executes a claimed
task it *heartbeats* the in-flight file's mtime (a touch every
``orphan_age / HEARTBEAT_DIVISOR`` seconds from the executing
process), so the file's mtime is a live lease, not a creation stamp.
The janitor requeues in-flight files whose lease actually expired —
older than :data:`INFLIGHT_SWEEP_AGE_SECONDS` since the *last
heartbeat* — back into ``pending/``, publishing the count as the
``queue.orphans_requeued`` metric. A slow task with a live heartbeat
is never requeued; a claim whose drainer was killed stops beating and
is, so a sweep waiting on it resumes at most ``orphan_age`` later. An
interrupted drainer gives its claim back at once instead.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import replace
from typing import (
    Any, Callable, Deque, Dict, Iterator, List, Optional, Set, Tuple,
)

from .._atomic import atomic_write
from ..backends import EvaluationResult, ResultCache
from ..obs import metrics as obs_metrics
from . import task as _task
from .base import ExecutorCapabilities
from .task import EvaluationTask, TaskError, TaskResult

__all__ = [
    "INFLIGHT_SWEEP_AGE_SECONDS",
    "HEARTBEAT_DIVISOR",
    "POLL_INTERVAL_SECONDS",
    "InflightLease",
    "QueueExecutor",
    "WorkQueue",
    "atomic_write_json",
]

#: Minimum age (seconds since the last heartbeat touch) before a
#: claimed task file in ``inflight/`` is considered orphaned by a
#: crashed drainer and requeued.
INFLIGHT_SWEEP_AGE_SECONDS = 60.0

#: A live drainer touches its claimed file every
#: ``orphan_age / HEARTBEAT_DIVISOR`` seconds, so a healthy lease is
#: always several beats fresher than the janitor's threshold.
HEARTBEAT_DIVISOR = 3.0

#: Seconds a drainer sleeps when nothing is claimable: between polls
#: of an empty queue (the service worker's default) and while a sweep
#: waits on keys another drainer holds.
POLL_INTERVAL_SECONDS = 0.1


def atomic_write_json(path: str, payload: Any) -> None:
    """Durably write ``payload`` as JSON: the writer of every JSON file
    under a queue directory (task files, the counter, metrics
    snapshots)."""
    atomic_write(path, json.dumps(payload, sort_keys=True),
                 prefix=".queue-", suffix=".json.tmp")


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _names(directory: str) -> List[str]:
    """The entries of ``directory`` (none when it is gone)."""
    try:
        return os.listdir(directory)
    except OSError:
        return []


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


class WorkQueue:
    """One queue directory: its layout and the steps its users share.

    ``orphan_age`` is the lease threshold shared by the janitor
    (:meth:`sweep`) and the heartbeat of :meth:`run_claim` (0 requeues
    at once and disables the heartbeat); ``clock`` is the wall clock
    both use (epoch seconds, comparable to file mtimes).
    """

    def __init__(
        self,
        queue_dir: str,
        orphan_age: float = INFLIGHT_SWEEP_AGE_SECONDS,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.root = queue_dir
        self.pending_dir = os.path.join(queue_dir, "pending")
        self.inflight_dir = os.path.join(queue_dir, "inflight")
        for directory in (self.pending_dir, self.inflight_dir):
            os.makedirs(directory, exist_ok=True)
        self.results = ResultCache(os.path.join(queue_dir, "results"))
        self.orphan_age = orphan_age
        self._clock = clock

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, backend_id: str, key: str) -> Optional[EvaluationResult]:
        """The stored result of ``key`` run on ``backend_id``, or
        ``None``: an absent, pruned or unreadable entry is a miss."""
        return self.results.get_entry(backend_id, key)

    def queued_keys(self) -> Set[str]:
        """The keys with a task file pending or claimed right now."""
        keys = set()
        for directory in (self.pending_dir, self.inflight_dir):
            for name in _names(directory):
                parts = name.split("-", 2)
                if len(parts) == 3 and name.endswith(".json"):
                    keys.add(parts[2][: -len(".json")])
        return keys

    def depth(self) -> int:
        """Task files pending or claimed right now."""
        return len(_names(self.pending_dir)) + len(_names(self.inflight_dir))

    # ------------------------------------------------------------------
    # Enqueue
    # ------------------------------------------------------------------
    def next_counter(self) -> int:
        """Allocate the next FIFO counter.

        The value is ``max(persisted counter file, highest counter still
        queued + 1)`` — never a per-process zero — so submission order
        survives restarts and holds across processes sharing the
        directory. The ``counter`` file is advanced atomically; a lost
        update between two racing submitters is caught by the directory
        scan as long as the earlier submission is still queued, which is
        the only window in which relative order matters.
        """
        counter_path = os.path.join(self.root, "counter")
        try:
            with open(counter_path, "r", encoding="utf-8") as handle:
                value = int(handle.read().strip() or 0)
        except (OSError, ValueError):
            value = 0
        for directory in (self.pending_dir, self.inflight_dir):
            for name in _names(directory):
                parts = name.split("-", 2)
                if (len(parts) == 3 and parts[1].isdecimal()
                        and name.endswith(".json")):
                    value = max(value, int(parts[1]) + 1)
        try:
            atomic_write_json(counter_path, value + 1)
        except OSError:
            pass  # a read-only queue still orders by the directory scan
        return value

    def enqueue(
        self, task: EvaluationTask, key: str
    ) -> Optional[EvaluationResult]:
        """Persist ``task`` (cache key ``key``) unless it coalesces.

        Returns the answer already in the results store, and then
        nothing is enqueued. Otherwise returns ``None``, having written
        a new pending file unless one for the key is already pending or
        in flight (the submission rides on it).
        """
        stored = self.lookup(task.backend, key)
        if stored is not None:
            return stored
        if key not in self.queued_keys():
            name = f"000000-{self.next_counter():08d}-{key}"
            atomic_write_json(
                os.path.join(self.pending_dir, f"{name}.json"),
                task.to_json_dict(),
            )
        return None

    # ------------------------------------------------------------------
    # Claim and run
    # ------------------------------------------------------------------
    def sweep(self) -> int:
        """Requeue in-flight files whose lease expired; returns the count.

        The mtime of a claimed file is a *lease*: live drainers
        heartbeat it (see :class:`InflightLease`), so only a claim whose
        drainer stopped beating for ``orphan_age`` seconds is requeued.
        A slow task under a live heartbeat is never double-run.
        """
        requeued = 0
        now = self._clock()
        for name in sorted(_names(self.inflight_dir)):
            path = os.path.join(self.inflight_dir, name)
            try:
                if now - os.path.getmtime(path) >= self.orphan_age:
                    os.replace(path, os.path.join(self.pending_dir, name))
                    requeued += 1
            except OSError:
                continue  # raced with another janitor or drainer: fine
        if requeued:
            obs_metrics.registry().counter("queue.orphans_requeued").inc(
                requeued
            )
        return requeued

    def claim(self) -> Optional[str]:
        """Atomically move the first pending file to ``inflight/``.

        Returns the claimed in-flight path, or ``None`` when nothing is
        claimable. Losing a rename race to another drainer just moves
        on to the next file — two drainers can never claim the same
        task. The file's mtime is set to now before the rename, so the
        lease starts with the claim: a task that waited in ``pending/``
        longer than ``orphan_age`` never looks expired to a janitor.
        """
        now = self._clock()
        for name in sorted(_names(self.pending_dir)):
            if not name.endswith(".json"):
                continue
            source = os.path.join(self.pending_dir, name)
            target = os.path.join(self.inflight_dir, name)
            try:
                os.utime(source, (now, now))
                os.replace(source, target)
            except OSError:
                continue  # another drainer claimed it first
            return target
        return None

    def run_claim(
        self, claimed: str, run: Callable[[EvaluationTask], TaskResult]
    ) -> Tuple[str, TaskResult]:
        """Execute one claimed task file; returns ``(key, result)``.

        Decodes the task, runs ``run(task)`` while an
        :class:`InflightLease` heartbeats the claim (another drainer's
        janitor must see a live lease, however slow the task), stores
        an ok result and drops the claim. When ``run`` raises (in
        practice an interrupt: :func:`~repro.exec.task.execute_task`
        reports every ``Exception`` as an error result), the claim goes
        back to ``pending/`` before the exception propagates, so the
        next drainer takes it at once rather than after the lease. An
        unreadable task file is dropped rather than left to poison the
        queue, and :class:`~repro.exec.task.TaskError` says so.
        """
        try:
            with open(claimed, "r", encoding="utf-8") as handle:
                task = EvaluationTask.from_json_dict(json.load(handle))
        except (OSError, ValueError) as exc:
            _unlink(claimed)
            raise TaskError(
                f"dropped unreadable task file "
                f"{os.path.basename(claimed)} ({exc})"
            ) from exc
        key = task.cache_key()
        try:
            with InflightLease(claimed, self.orphan_age, self._clock):
                result = run(task)
        except BaseException:
            try:
                os.replace(claimed, os.path.join(
                    self.pending_dir, os.path.basename(claimed)
                ))
            except OSError:
                pass  # a janitor already requeued it
            raise
        self.store(task.backend, key, result)
        _unlink(claimed)
        return key, result

    def store(self, backend_id: str, key: str, result: TaskResult) -> None:
        """File an ok result under ``key`` (failures are never stored,
        and a full or read-only store must not fail the task)."""
        if not result.ok:
            return
        try:
            self.results.put_entry(backend_id, key, result.result)
        except OSError:
            pass


class QueueExecutor:
    """Persistent on-disk queue executor with coalescing; shares its
    queue directory with other sweeps and ``repro worker`` processes
    without evaluating a key twice."""

    capabilities = ExecutorCapabilities(name="queue")

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
        self.queue = WorkQueue(queue_dir, orphan_age, clock)
        self.notes: List[str] = []
        self._fault_plan = fault_plan
        self._run_task = run_task
        self._waiters: Dict[str, List[EvaluationTask]] = {}
        self._served: Deque[Tuple[EvaluationTask, EvaluationResult]] = deque()
        self._executed = 0
        self._coalesced = 0
        self._depth_high_water = 0
        # Janitor: requeue task files whose lease expired (crashed drainer).
        self._orphans_requeued = self.queue.sweep()
        if self._orphans_requeued:
            self.notes.append(
                f"work queue janitor: requeued {self._orphans_requeued} "
                f"orphaned in-flight task(s) in {self.queue_dir}"
            )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, task: EvaluationTask) -> None:
        """Enqueue one task, coalescing on its cache key.

        A key already being waited on, already queued on disk, or
        already answered in the results store is not enqueued again.
        The ``coalesced`` count is the number of results stamped
        coalesced: a submission served from another evaluation. A
        later waiter on a key and a key answered in the store count
        here; a first waiter counts only when :meth:`_settle` serves
        it another drainer's stored result, and not when this executor
        runs the key itself, even from a file an earlier (possibly
        crashed) submitter left pending.
        """
        key = task.cache_key()
        waiters = self._waiters.get(key)
        if waiters is not None:
            waiters.append(task)
            self._coalesced += 1
            return
        stored = self.queue.enqueue(task, key)
        if stored is not None:
            self._served.append((task, stored))
            self._coalesced += 1
            return
        self._waiters[key] = [task]
        self._depth_high_water = max(
            self._depth_high_water, self.queue.depth()
        )

    @property
    def pending(self) -> int:
        """Submissions not yet yielded by :meth:`drain`."""
        return sum(len(w) for w in self._waiters.values()) + len(self._served)

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

    def _settle(self) -> Optional[List[TaskResult]]:
        """Answer the first waiting key that no drainer holds; ``None``
        when every waiting key has a task file pending or in flight.

        The task files are listed before the results are looked up:
        :meth:`WorkQueue.run_claim` stores before it drops the claim,
        so a key whose file is gone after an ok run has its result
        stored.
        """
        held = self.queue.queued_keys()
        for key, waiters in self._waiters.items():
            if key in held:
                continue
            task = waiters[0]
            stored = self.queue.lookup(task.backend, key)
            if stored is None:
                # The other drainer's run failed (errors are never
                # stored) or the task file was unreadable and dropped:
                # evaluate the in-memory submission.
                result = self._run(task)
                self.queue.store(task.backend, key, result)
                return self._dispatch(key, result)
            # Another drainer answered it: every waiter is coalesced,
            # and all but the first were counted at submission.
            self._coalesced += 1
            del self._waiters[key]
            return [
                TaskResult.from_evaluation(waiter, stored, coalesced=True)
                for waiter in waiters
            ]
        return None

    def drain(self) -> Iterator[TaskResult]:
        """Yield a result for every local submission (coalesced ones
        included) until none remains waiting.

        Claimable task files run here in submission order; files of
        other submitters are executed and stored but not yielded. When
        nothing is claimable, :meth:`_settle` answers a waiting key no
        other drainer holds; while every waiting key is held, the
        janitor requeues expired leases and the drain polls every
        :data:`POLL_INTERVAL_SECONDS`.
        """
        while self._waiters or self._served:
            while self._served:
                waiter, stored = self._served.popleft()
                yield TaskResult.from_evaluation(
                    waiter, stored, coalesced=True
                )
            if not self._waiters:
                continue
            claimed = self.queue.claim()
            if claimed is None:
                results = self._settle()
                if results is None:
                    requeued = self.queue.sweep()
                    self._orphans_requeued += requeued
                    if not requeued:
                        time.sleep(POLL_INTERVAL_SECONDS)
                    continue
            else:
                try:
                    key, result = self.queue.run_claim(claimed, self._run)
                except TaskError as exc:
                    self.notes.append(f"work queue: {exc}")
                    continue
                results = self._dispatch(key, result)
            yield from results

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
