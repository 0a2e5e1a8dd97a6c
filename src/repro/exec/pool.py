"""Process-pool executor with hang detection and pool-death recovery.

The behavior is the former ``SweepSupervisor._run_pooled`` loop,
extracted behind the :class:`~repro.exec.base.Executor` protocol
bit-for-bit:

* Up to ``processes`` tasks are in flight at once; the executor waits
  on the *oldest* submission (FIFO head) so a hang is charged against
  the task that has actually been running longest.
* A task that produces no result within ``point_timeout`` seconds is
  declared hung and the pool is terminated (its slot is
  unrecoverable). The kill settles every in-flight task at once: a
  result that is already ready is kept, every task submitted no later
  than the hung one is past its own deadline and gets a structured
  ``PointTimeout`` failure (the policy layer decides whether to retry
  it), and only the rest go back to the front of the ready queue. A
  fresh pool is spawned lazily for the next submission.
* If the pool infrastructure itself dies (``apply_async`` or result
  retrieval raises — workers never raise through the task protocol),
  the executor notes the degradation and falls back to executing
  in-process, so a sweep always completes.

Pool shutdown failures are counted (``sweep.pool_shutdown_errors``),
noted, and re-raised unless a more primary error is already
propagating — see :func:`shutdown_pool`.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

from ..obs import metrics as obs_metrics
from . import task as _task
from .base import ExecutorCapabilities
from .task import EvaluationTask, TaskResult

__all__ = ["PoolExecutor", "shutdown_pool"]


def shutdown_pool(
    pool: Any,
    terminate: bool = False,
    notes: Optional[List[str]] = None,
) -> None:
    """Close or terminate a worker pool and join it.

    A cleanup failure used to be ``except Exception: pass``, which
    masked pool-infrastructure faults entirely. Now it is counted
    (``sweep.pool_shutdown_errors``), recorded in ``notes``, and —
    when no prior exception is already propagating — re-raised, so
    a shutdown failure only stays quiet while a more primary error
    is in flight (where raising would replace that error).
    """
    prior_error_in_flight = sys.exc_info()[0] is not None
    try:
        if terminate:
            pool.terminate()
        else:
            pool.close()
        pool.join()
    except Exception as exc:
        obs_metrics.registry().counter("sweep.pool_shutdown_errors").inc()
        message = (
            f"worker pool shutdown failed: {type(exc).__name__}: {exc}"
        )
        if notes is not None:
            notes.append(message)
        if not prior_error_in_flight:
            raise


def _timeout_result(task: EvaluationTask, timeout: float) -> TaskResult:
    """The structured failure of a task killed after ``timeout`` s."""
    return TaskResult(
        status="error",
        index=task.index,
        series=task.series,
        x=task.x,
        attempt=task.attempt,
        seed_used=task.seed,
        failure={
            "error_type": "PointTimeout",
            "error_message": (
                f"no result within {timeout:g} s "
                f"(attempt {task.attempt + 1})"
            ),
        },
    )


class PoolExecutor:
    """Execute tasks across worker processes with hang supervision."""

    capabilities = ExecutorCapabilities(name="pool", preemptive_timeout=True)

    def __init__(
        self,
        processes: int = 2,
        point_timeout: Optional[float] = None,
        fault_plan: Optional[Any] = None,
        clock: Callable[[], float] = time.monotonic,
        pool_factory: Optional[Callable[[], Any]] = None,
        run_task: Optional[Callable[..., TaskResult]] = None,
    ) -> None:
        """Pool executor over ``processes`` workers.

        ``clock`` / ``pool_factory`` are injectable so
        tests drive hang detection with a fake clock and stub pools.
        ``run_task`` overrides the (picklable, module-level) task
        function shipped to workers; the default is
        :func:`~repro.exec.task.execute_task`.
        """
        self.processes = max(1, processes)
        self.notes: List[str] = []
        self._ready: Deque[EvaluationTask] = deque()
        # (task, AsyncResult, submit_time), FIFO.
        self._inflight: Deque[Tuple[EvaluationTask, Any, float]] = deque()
        # Results settled by a pool kill, not yet yielded.
        self._settled: Deque[TaskResult] = deque()
        self._point_timeout = point_timeout
        self._fault_plan = fault_plan
        self._clock = clock
        self._pool_factory = pool_factory or (
            lambda: multiprocessing.Pool(self.processes)
        )
        self._run_task = run_task
        self._pool: Optional[Any] = None
        self._degraded = False
        self._executed = 0
        self._timeouts = 0
        self._pools_started = 0

    def submit(self, task: EvaluationTask) -> None:
        """Append one task to the ready queue."""
        self._ready.append(task)

    @property
    def pending(self) -> int:
        """Tasks submitted but not yet yielded (ready, in flight, or
        settled by a pool kill)."""
        return len(self._ready) + len(self._inflight) + len(self._settled)

    def _task_function(self) -> Callable[..., TaskResult]:
        if self._run_task is not None:
            return self._run_task
        return _task.execute_task

    def _requeue(self, head: Optional[EvaluationTask] = None) -> None:
        """Put ``head`` (if given) and every in-flight task back at the
        front of the ready queue, preserving order."""
        entries = ([head] if head is not None else []) + [
            task for task, _, _ in self._inflight
        ]
        self._inflight.clear()
        for task in reversed(entries):
            self._ready.appendleft(task)

    def _degrade(self, message: str) -> None:
        self.notes.append(message)
        self._degraded = True

    def _run_in_process(self, task: EvaluationTask) -> TaskResult:
        """Degraded-mode execution: evaluate in the supervisor process."""
        self._executed += 1
        return self._task_function()(task, self._fault_plan)

    def _kill(self, head_submitted: float, timeout: float) -> None:
        """Terminate the pool over a hung head task and settle every
        in-flight task: keep the results that are ready, time out the
        tasks submitted no later than the head (their deadlines have
        passed too), and requeue the rest."""
        # Read every ready result before changing any state: a failing
        # get() leaves the in-flight queue whole for the pool-death
        # path. Settle before the shutdown, so a shutdown that raises
        # into that path loses no task either.
        outcomes = [
            (task, async_result.get() if async_result.ready() else None,
             submitted)
            for task, async_result, submitted in self._inflight
        ]
        self._inflight.clear()
        requeue = []
        for task, task_result, submitted in outcomes:
            if task_result is not None:
                self._executed += 1
                self._settled.append(task_result)
            elif submitted <= head_submitted:
                self._timeouts += 1
                self._settled.append(_timeout_result(task, timeout))
            else:
                requeue.append(task)
        for task in reversed(requeue):
            self._ready.appendleft(task)
        shutdown_pool(self._pool, terminate=True, notes=self.notes)
        self._pool = None

    def drain(self) -> Iterator[TaskResult]:
        """Yield results until no submitted work remains.

        Results arrive in FIFO-head completion order; a pool kill
        yields the results that were ready and a structured
        ``PointTimeout`` error result for each task past its deadline.
        """
        timeout = self._point_timeout
        while self._settled or self._ready or self._inflight:
            if self._settled:
                yield self._settled.popleft()
                continue
            if self._degraded:
                yield self._run_in_process(self._ready.popleft())
                continue
            if self._pool is None:
                try:
                    self._pool = self._pool_factory()
                    self._pools_started += 1
                except Exception as exc:
                    self._degrade(
                        f"could not start worker pool "
                        f"({type(exc).__name__}: {exc}); "
                        "degrading to serial execution"
                    )
                    continue
            now = self._clock()
            task: Optional[EvaluationTask] = None
            try:
                while self._ready and len(self._inflight) < self.processes:
                    task = self._ready.popleft()
                    async_result = self._pool.apply_async(
                        self._task_function(),
                        (task, self._fault_plan),
                    )
                    self._inflight.append((task, async_result, now))
                    task = None
            except Exception as exc:
                self._requeue(head=task)
                self._degrade(
                    f"worker pool died ({type(exc).__name__}: {exc}); "
                    "degrading to serial execution"
                )
                shutdown_pool(self._pool, notes=self.notes)
                self._pool = None
                continue

            _, async_result, submitted = self._inflight[0]
            try:
                if timeout is not None:
                    remaining = submitted + timeout - self._clock()
                    async_result.wait(max(0.0, remaining))
                    if not async_result.ready():
                        # Hung worker: the pool slot is lost. A fresh
                        # pool is spawned lazily on the next submission.
                        self._kill(submitted, timeout)
                        continue
                task_result = async_result.get()
            except Exception as exc:
                # The pool infrastructure itself failed (workers never
                # raise through the protocol). Fall back to in-process
                # execution.
                self._requeue()
                self._degrade(
                    f"worker pool died ({type(exc).__name__}: {exc}); "
                    "degrading to serial execution"
                )
                shutdown_pool(self._pool, terminate=True, notes=self.notes)
                self._pool = None
                continue

            self._inflight.popleft()
            self._executed += 1
            yield task_result

    def close(self) -> None:
        """Terminate and join the worker pool, if one is alive."""
        if self._pool is not None:
            pool, self._pool = self._pool, None
            shutdown_pool(pool, terminate=True, notes=self.notes)

    def stats(self) -> Dict[str, Any]:
        """Counters for the run manifest's ``execution`` section."""
        return {
            "executor": self.capabilities.name,
            "tasks_executed": self._executed,
            "processes": self.processes,
            "timeouts": self._timeouts,
            "pools_started": self._pools_started,
            "degraded_to_serial": self._degraded,
        }
