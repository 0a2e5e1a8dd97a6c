"""The executor protocol: submit tasks, drain results.

An *executor* is anything that turns submitted
:class:`~repro.exec.task.EvaluationTask` objects into
:class:`~repro.exec.task.TaskResult` envelopes. The protocol is
deliberately small — ``submit`` / ``pending`` / ``drain`` / ``close``
plus a :class:`ExecutorCapabilities` record and a ``stats()``
snapshot — so the retry/journal policy layer
(:class:`~repro.experiments.resilience.SweepSupervisor`) can drive a
serial loop, a process pool, or a persistent on-disk queue without
knowing which it has.

:func:`make_executor` is the one place the package builds an
executor: the sweep runner resolves its ``executor`` argument through
it, and the supervisor drives whatever it is handed. The capability
record says what the supervisor may rely on: ``name`` (the registered
id the manifest and error messages use) and ``preemptive_timeout`` (a
hung task can be killed from outside — only the pool can, and only
the pool takes a timeout; in-process executors see ``point_timeout``
as the simulation's wall-clock budget).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    runtime_checkable,
)

from .task import EvaluationTask, TaskResult

__all__ = [
    "EXECUTOR_IDS",
    "ExecutorCapabilities",
    "ExecutorError",
    "Executor",
    "make_executor",
]

#: The registered executor names ``make_executor`` accepts, in the
#: order the CLI advertises them.
EXECUTOR_IDS = ("serial", "pool", "queue")


class ExecutorError(RuntimeError):
    """An executor cannot be built or has reached an unusable state
    (unknown name, missing queue directory, stalled drain)."""


@dataclass(frozen=True)
class ExecutorCapabilities:
    """What an executor implementation can promise its driver.

    Attributes
    ----------
    name:
        Registered executor id (``"serial"``, ``"pool"``, ``"queue"``).
    preemptive_timeout:
        A hung task can be killed from outside the evaluating process.
    """

    name: str
    preemptive_timeout: bool = False


@runtime_checkable
class Executor(Protocol):
    """Protocol every executor implements.

    The lifecycle is: ``submit()`` any number of tasks, iterate
    ``drain()`` to pull completed :class:`TaskResult` envelopes (the
    iterator ends when no submitted work remains), interleave further
    ``submit()`` calls freely (retries), and ``close()`` when done.
    ``notes`` accumulates human-readable degradation messages (pool
    death, janitor action) for the caller to drain into figure notes.
    """

    capabilities: ExecutorCapabilities
    notes: List[str]

    def submit(self, task: EvaluationTask) -> None:
        """Accept one task for execution."""
        ...

    @property
    def pending(self) -> int:
        """Number of submitted tasks not yet yielded by :meth:`drain`."""
        ...

    def drain(self) -> Iterator[TaskResult]:
        """Yield results until no submitted work remains."""
        ...

    def close(self) -> None:
        """Release resources (worker pools, file handles). Idempotent."""
        ...

    def stats(self) -> Dict[str, Any]:
        """Execution counters for the run manifest (executor id,
        tasks executed, coalesced count, queue depth high-water)."""
        ...


def make_executor(
    name: str,
    processes: Optional[int] = None,
    point_timeout: Optional[float] = None,
    fault_plan: Optional[Any] = None,
    queue_dir: Optional[str] = None,
    clock: Callable[[], float] = time.monotonic,
    pool_factory: Optional[Callable[[], Any]] = None,
    run_task: Optional[Callable[..., TaskResult]] = None,
) -> "Executor":
    """Build a registered executor by name; the one place the package
    builds an executor.

    ``"serial"`` runs tasks in-process in submission order;
    ``"pool"`` fans out over ``processes`` worker processes (default
    2) and kills a task still running after ``point_timeout`` seconds
    (the only executor that takes a timeout; the others ignore it);
    ``"queue"`` persists tasks to ``queue_dir`` (required) and
    coalesces identical submissions on the cache key. Unknown names
    and a queue without a directory raise :class:`ExecutorError`.
    ``fault_plan`` is forwarded to every evaluation the executor runs.
    The caller owns the executor and closes it.

    ``clock`` / ``pool_factory`` / ``run_task`` are
    injectable for tests (fake time, stub pools, canned evaluation).
    """
    if name == "serial":
        from .serial import SerialExecutor

        return SerialExecutor(fault_plan=fault_plan, run_task=run_task)
    if name == "pool":
        from .pool import PoolExecutor

        return PoolExecutor(
            processes=processes if processes is not None else 2,
            point_timeout=point_timeout,
            fault_plan=fault_plan,
            clock=clock,
            pool_factory=pool_factory,
            run_task=run_task,
        )
    if name == "queue":
        from .queue import QueueExecutor

        if not queue_dir:
            raise ExecutorError(
                "the queue executor needs a queue directory; pass "
                "queue_dir= (CLI: --queue-dir)"
            )
        return QueueExecutor(
            queue_dir, fault_plan=fault_plan, run_task=run_task
        )
    raise ExecutorError(
        f"unknown executor {name!r}; known: {', '.join(EXECUTOR_IDS)}"
    )
