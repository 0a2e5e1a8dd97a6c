"""Execution layer: serializable tasks, interchangeable executors.

This package is the seam between *what* to evaluate and *where* it
runs. The unit of work is a versioned, picklable
:class:`~repro.exec.task.EvaluationTask`; anything that can turn
tasks into :class:`~repro.exec.task.TaskResult` envelopes is an
:class:`~repro.exec.base.Executor`:

* :class:`~repro.exec.serial.SerialExecutor` — in-process, strict
  submission order; a point timeout reaches it only as the plan's
  wall-clock budget. The conformance reference.
* :class:`~repro.exec.pool.PoolExecutor` — ``multiprocessing.Pool``
  fan-out with pool-death recovery; the one executor that takes a
  timeout and kills a hung point.
* :class:`~repro.exec.queue.QueueExecutor` — file-backed persistent
  queue with cache-key deduplication, so concurrent figures sharing
  points, and ``repro worker`` processes draining beside a sweep,
  evaluate each point once. Its :class:`~repro.exec.queue.WorkQueue`
  is the one owner of a queue directory, shared with the service
  worker.

Retry policy, backoff, fallback backends, journaling and failure
reporting live one layer up, in
:class:`~repro.experiments.resilience.SweepSupervisor`,
which drives any executor through the same protocol. See
``docs/EXECUTION.md`` for the task schema, the executor decision
tree and the queue layout.
"""

from .base import (
    EXECUTOR_IDS,
    Executor,
    ExecutorCapabilities,
    ExecutorError,
    make_executor,
)
from .pool import PoolExecutor, shutdown_pool
from .queue import (
    HEARTBEAT_DIVISOR,
    INFLIGHT_SWEEP_AGE_SECONDS,
    InflightLease,
    QueueExecutor,
    WorkQueue,
)
from .serial import SerialExecutor
from .task import (
    TASK_SCHEMA_VERSION,
    EvaluationTask,
    Outcome,
    TaskError,
    TaskResult,
    execute_task,
    failure_payload,
)

__all__ = [
    "EXECUTOR_IDS",
    "Executor",
    "ExecutorCapabilities",
    "ExecutorError",
    "make_executor",
    "PoolExecutor",
    "shutdown_pool",
    "QueueExecutor",
    "INFLIGHT_SWEEP_AGE_SECONDS",
    "HEARTBEAT_DIVISOR",
    "InflightLease",
    "WorkQueue",
    "SerialExecutor",
    "TASK_SCHEMA_VERSION",
    "EvaluationTask",
    "Outcome",
    "TaskError",
    "TaskResult",
    "execute_task",
    "failure_payload",
]
