"""In-process executor: deterministic, one task at a time.

The simplest implementation of the
:class:`~repro.exec.base.Executor` protocol — and the reference for
the conformance suite: results come back in exactly submission order,
so a serial run is the canonical answer the pool and queue executors
must reproduce bit-for-bit.

A serial executor cannot preempt a hung evaluation (it *is* the
evaluating process), so it takes no timeout. A sweep's
``point_timeout`` reaches it cooperatively instead, as the
simulation's wall-clock budget (:func:`~repro.exec.task.tighten_budget`):
a runaway point raises
:class:`~repro.san.errors.WallClockExceededError` from inside the
executive and flows through the normal retry path.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional

from . import task as _task
from .base import ExecutorCapabilities
from .task import EvaluationTask, TaskResult

__all__ = ["SerialExecutor"]


class SerialExecutor:
    """Execute tasks in-process, in submission order."""

    capabilities = ExecutorCapabilities(name="serial")

    def __init__(
        self,
        fault_plan: Optional[Any] = None,
        run_task: Optional[Callable[..., TaskResult]] = None,
    ) -> None:
        """In-process executor.

        ``fault_plan`` is forwarded to every
        :func:`~repro.exec.task.execute_task` call. ``run_task``
        overrides the evaluation function itself (test seam); when
        ``None`` the executor resolves
        ``repro.exec.task.execute_task`` at call time, so
        monkeypatching the module function takes effect.
        """
        self.notes: List[str] = []
        self._ready: Deque[EvaluationTask] = deque()
        self._fault_plan = fault_plan
        self._run_task = run_task
        self._executed = 0

    def submit(self, task: EvaluationTask) -> None:
        """Append one task to the FIFO."""
        self._ready.append(task)

    @property
    def pending(self) -> int:
        """Tasks submitted but not yet executed."""
        return len(self._ready)

    def drain(self) -> Iterator[TaskResult]:
        """Execute and yield queued tasks until the FIFO is empty."""
        while self._ready:
            item = self._ready.popleft()
            runner = self._run_task
            if runner is None:
                runner = _task.execute_task
            self._executed += 1
            yield runner(item, self._fault_plan)

    def close(self) -> None:
        """Nothing to release; kept for protocol symmetry."""

    def stats(self) -> Dict[str, Any]:
        """Counters for the run manifest's ``execution`` section."""
        return {
            "executor": self.capabilities.name,
            "tasks_executed": self._executed,
        }
