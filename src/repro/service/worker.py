"""The service worker: a long-running queue drainer process.

``repro worker --queue-dir Q`` runs one of these. The loop is the
smallest thing that is correct against the queue's concurrency
contract:

1. sweep expired in-flight leases back to the pending tasks (the
   janitor of :class:`~repro.exec.queue.WorkQueue` — only claims
   whose drainer stopped heartbeating are requeued);
2. claim the first pending task by atomic rename (losing the race to
   a sibling worker just means trying the next file);
3. run the claim through :meth:`~repro.exec.queue.WorkQueue.run_claim`,
   the same step :class:`~repro.exec.QueueExecutor` drains with: the
   task executes through the standard
   :func:`~repro.exec.task.execute_task` (with ``--point-timeout`` as
   the plan's wall-clock budget) while an
   :class:`~repro.exec.InflightLease` heartbeats the claim, so
   however slow the point is, no other janitor steals it; an ok
   result goes into the queue's results store (the store executors
   and the job API look up) and the claim is dropped;
4. count the task for its tenant and append one line to the worker's
   evaluation log.

Several workers share one queue directory safely: the rename in step
2 is the mutual exclusion, and the integration tests assert the
global property it buys — N workers, one submitted job, zero
double-evaluations.

Shutdown is cooperative: SIGTERM (and SIGINT) set a flag checked
between tasks, so the current task always finishes, its result is
stored, and the claim is released before the process exits — a
drained SIGTERM never creates an orphan for the janitor to recover.

Accounting: each executed task increments
``tenant.<label>.evaluated`` or ``.failed`` (the tenant comes from
the job records next to the queue; tasks submitted outside any job
count under ``anonymous``), and the worker persists its metrics
snapshot to ``<queue_dir>/obs/worker-<id>.metrics.json`` after every
task so ``repro obs`` can render the tenant counters while the
worker is alive or after it exited. A task file that does not decode
is dropped from the queue; the worker counts it in ``dropped`` and
keeps the reason in ``notes``, which ``repro worker`` prints on exit.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional

from ..exec import TaskError, TaskResult
from ..exec.queue import INFLIGHT_SWEEP_AGE_SECONDS, WorkQueue
from ..exec.task import EvaluationTask, execute_task, tighten_budget
from ..obs import metrics as obs_metrics
from .jobs import write_metrics_snapshot

__all__ = ["ServiceWorker"]


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
        poll_interval: float = 0.2,
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
        # key -> tenant label, lazily rebuilt from the job records so
        # accounting follows jobs submitted after the worker started.
        self._tenants: Dict[str, str] = {}
        self._tenant_jobs_seen: int = -1

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
    # Tenant accounting
    # ------------------------------------------------------------------
    def _tenant_of(self, key: str) -> str:
        """The tenant label owning a cache key (``anonymous`` when no
        job record claims it)."""
        tenant = self._tenants.get(key)
        if tenant is not None:
            return tenant
        jobs_dir = os.path.join(self.queue_dir, "jobs")
        try:
            names = sorted(
                name for name in os.listdir(jobs_dir)
                if name.endswith(".json")
            )
        except OSError:
            names = []
        if len(names) != self._tenant_jobs_seen:
            self._tenant_jobs_seen = len(names)
            for name in names:
                try:
                    with open(
                        os.path.join(jobs_dir, name), "r", encoding="utf-8"
                    ) as handle:
                        record = json.load(handle)
                    label = str(record.get("tenant", "anonymous"))
                    for point in record.get("points", []):
                        self._tenants.setdefault(str(point.get("key")), label)
                except (OSError, ValueError, AttributeError):
                    continue  # a torn or foreign record never stops a worker
        return self._tenants.get(key, "anonymous")

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
        tenant = self._tenant_of(key)
        reg = obs_metrics.registry()
        if result.ok:
            reg.counter(f"tenant.{tenant}.evaluated").inc()
            self._log_evaluation(key, "ok")
        else:
            self.failed += 1
            reg.counter(f"tenant.{tenant}.failed").inc()
            self._log_evaluation(key, "error")
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
