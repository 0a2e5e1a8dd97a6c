"""Service mode: ``repro worker`` processes draining a shared queue.

The execution layer (:mod:`repro.exec`) gave sweeps interchangeable
executors inside one process; this package spreads a queue sweep's
points over processes. :mod:`repro.service.worker` is ``repro
worker``, a long-running drainer that claims tasks from a shared
``--queue-dir``, executes them while heartbeating its in-flight
lease, and exits cleanly on SIGTERM after the current task.

A ``run-figure --executor queue`` sweep plus N workers on one queue
directory is the one multi-process path: the sweep submits its points,
workers and sweep claim them by atomic rename, and the sweep waits on
a point a live worker holds instead of evaluating it again (see
:meth:`~repro.exec.queue.QueueExecutor.drain`). The worker does not
know how a queue directory is laid out: it goes through
:class:`~repro.exec.queue.WorkQueue`, the same claim, run and janitor
steps the sweep uses. See ``docs/EXECUTION.md`` ("Service mode") for
the operational walk-through.
"""

from .worker import ServiceWorker

__all__ = ["ServiceWorker"]
