"""The service worker: a long-running queue drainer process.

``repro worker --queue-dir Q`` runs one of these, usually several
beside a ``run-figure --executor queue --queue-dir Q`` sweep. The
loop is the smallest thing that is correct against the queue's
concurrency contract:

1. sweep expired in-flight leases back to the pending tasks (the
   janitor of :class:`~repro.exec.queue.WorkQueue` — only claims
   whose drainer stopped heartbeating are requeued);
2. claim the first pending task by atomic rename (losing the race to
   a sibling worker just means trying the next file);
3. run the claim through :meth:`~repro.exec.queue.WorkQueue.run_claim`,
   the same step :class:`~repro.exec.QueueExecutor` drains with: the
   task executes through the standard
   :func:`~repro.exec.task.execute_task` under the wall-clock budget
   its plan carries (a sweep's ``--point-timeout``, lowered further
   by the worker's own) while an :class:`~repro.exec.InflightLease`
   heartbeats the claim, so however slow the point is, no other
   janitor steals it; an ok result goes into the queue's results
   store, where the sweep that submitted the task finds it, and the
   claim is dropped;
4. append one line to the worker's evaluation log.

Several workers and a sweep share one queue directory safely: the
rename in step 2 is the mutual exclusion, and the sweep's drain waits
on a claim a worker holds instead of evaluating it; the integration
test asserts what the two buy — two workers beside one sweep, zero
double evaluations.

Shutdown is cooperative: SIGTERM (and SIGINT) set a flag checked
between tasks, so the current task always finishes, its result is
stored, and the claim is released before the process exits — a
drained SIGTERM never creates an orphan for the janitor to recover.

The worker persists its metrics snapshot to
``<queue_dir>/obs/<worker_id>.metrics.json`` after every task so
``repro obs`` can render it while the worker is alive or after it
exited. A task file that does not decode is dropped from the queue;
the worker counts it in ``dropped`` and keeps the reason in
``notes``, which ``repro worker`` prints on exit.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import replace
from typing import Callable, List, Optional

from ..exec import TaskError, TaskResult
from ..exec.queue import (
    INFLIGHT_SWEEP_AGE_SECONDS,
    POLL_INTERVAL_SECONDS,
    WorkQueue,
    atomic_write_json,
)
from ..exec.task import EvaluationTask, execute_task, tighten_budget
from ..obs import metrics as obs_metrics

__all__ = ["ServiceWorker", "write_metrics_snapshot"]


def write_metrics_snapshot(queue_dir: str, name: str) -> str:
    """Persist the process metrics registry as
    ``<queue_dir>/obs/<name>.metrics.json`` (atomic); returns the path.

    Metrics registries are process-local, so every worker drops its
    snapshot here for ``repro obs <queue_dir>/obs`` to render after
    the process is gone.
    """
    directory = os.path.join(queue_dir, "obs")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.metrics.json")
    atomic_write_json(path, obs_metrics.registry().snapshot())
    return path


class ServiceWorker:
    """One drainer process over a shared queue directory.

    Parameters
    ----------
    queue_dir:
        The shared queue (same layout as
        :class:`~repro.exec.QueueExecutor`).
    worker_id:
        Name used for the evaluation log and metrics snapshot;
        defaults to ``worker-<pid>``.
    poll_interval:
        Sleep between polls of an empty queue (seconds).
    idle_exit:
        Exit after this many seconds with nothing claimable
        (``None`` = run until signalled); turns the daemon into a
        finite drainer for tests and CI.
    max_tasks:
        Exit after executing this many tasks (``None`` = unlimited).
    orphan_age:
        Lease threshold shared by the janitor and the heartbeat.
    point_timeout:
        Wall-clock seconds per task, applied to each claimed task as
        its plan's wall-clock budget (:func:`~repro.exec.task.tighten_budget`);
        the kernel enforces it cooperatively.
    run_task / clock / sleep:
        Test seams.
    """

    def __init__(
        self,
        queue_dir: str,
        worker_id: Optional[str] = None,
        poll_interval: float = POLL_INTERVAL_SECONDS,
        idle_exit: Optional[float] = None,
        max_tasks: Optional[int] = None,
        orphan_age: float = INFLIGHT_SWEEP_AGE_SECONDS,
        point_timeout: Optional[float] = None,
        run_task: Optional[Callable[..., TaskResult]] = None,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.queue_dir = queue_dir
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.poll_interval = poll_interval
        self.idle_exit = idle_exit
        self.max_tasks = max_tasks
        self.orphan_age = orphan_age
        self.point_timeout = point_timeout
        self._run_task = run_task or execute_task
        self._clock = clock
        self._sleep = sleep
        self._stop_requested = False
        self.executed = 0
        self.failed = 0
        # Task files dropped as unreadable, each with its reason.
        self.dropped = 0
        self.notes: List[str] = []
        self.queue = WorkQueue(queue_dir, orphan_age, clock)
        workers_dir = os.path.join(queue_dir, "workers")
        os.makedirs(workers_dir, exist_ok=True)
        self._log_path = os.path.join(
            workers_dir, f"{self.worker_id}.log.jsonl"
        )

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Finish the current task, then exit the loop."""
        self._stop_requested = True

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to :meth:`request_stop` (drain-then-exit)."""
        def handler(_signum: int, _frame: object) -> None:
            self.request_stop()

        signal.signal(signal.SIGTERM, handler)
        signal.signal(signal.SIGINT, handler)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _log_evaluation(self, key: str, status: str) -> None:
        """Append one JSONL line per executed task (the integration
        tests count these per key to prove zero double-evaluations)."""
        line = json.dumps({
            "key": key,
            "status": status,
            "worker": self.worker_id,
            "unix": self._clock(),
        }, sort_keys=True)
        try:
            with open(self._log_path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        except OSError:
            pass

    def _snapshot(self) -> None:
        try:
            write_metrics_snapshot(self.queue_dir, self.worker_id)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def _run(self, task: EvaluationTask) -> TaskResult:
        return self._run_task(
            replace(task, plan=tighten_budget(task.plan, self.point_timeout))
        )

    def _execute_claim(self, claimed: str) -> None:
        try:
            key, result = self.queue.run_claim(claimed, self._run)
        except TaskError as exc:
            self.dropped += 1
            self.notes.append(f"work queue: {exc}")
            return
        self.executed += 1
        if not result.ok:
            self.failed += 1
        self._log_evaluation(key, "ok" if result.ok else "error")
        self._snapshot()

    def run(self) -> int:
        """Drain until signalled / idle-exit / max-tasks; returns the
        number of tasks executed."""
        last_work = self._clock()
        last_sweep = 0.0
        while not self._stop_requested:
            if self.max_tasks is not None and self.executed >= self.max_tasks:
                break
            now = self._clock()
            # Sweep at most once per lease period: the janitor is
            # hygiene, not a hot path.
            if self.orphan_age > 0 and now - last_sweep >= self.orphan_age:
                last_sweep = now
                self.queue.sweep()
            claimed = self.queue.claim()
            if claimed is not None:
                self._execute_claim(claimed)
                last_work = self._clock()
                continue
            if (
                self.idle_exit is not None
                and self._clock() - last_work >= self.idle_exit
            ):
                break
            self._sleep(self.poll_interval)
        self._snapshot()
        return self.executed
