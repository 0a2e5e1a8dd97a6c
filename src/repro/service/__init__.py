"""Service mode: a shared work queue, drainer workers, and named jobs.

The execution layer (:mod:`repro.exec`) gave sweeps interchangeable
executors inside one process; this package turns the persistent queue
into a small multi-process evaluation *service*:

* :mod:`repro.service.worker` — ``repro worker``, a long-running
  drainer claiming tasks from a shared ``--queue-dir``, executing
  them through the standard resilience layer while heartbeating its
  in-flight lease, and exiting cleanly on SIGTERM after the current
  task.
* :mod:`repro.service.jobs` — the job API: submit a figure sweep as
  a named, tenant-labelled job (a JSON record next to the queue),
  poll its status against the queue's result cache, and collect the
  finished figure without ever blocking a worker. Collected archives
  are bit-identical to a serial run of the same figure.

Neither module knows how a queue directory is laid out: both go
through :class:`~repro.exec.queue.WorkQueue`, the same enqueue, claim
and lookup steps :class:`~repro.exec.QueueExecutor` uses — atomic
renames for claims, heartbeat leases for crash recovery, canonical
cache keys for dedup, a :class:`~repro.backends.ResultCache` for
results — so executors, workers and jobs can share one queue
directory concurrently. See ``docs/EXECUTION.md`` ("Service mode")
for the operational walk-through.
"""

from .jobs import (
    JOB_SCHEMA_VERSION,
    JobError,
    JobRecord,
    JobStatus,
    collect_job,
    job_path,
    job_status,
    jobs_dir,
    list_jobs,
    load_job,
    submit_job,
    write_metrics_snapshot,
)
from .worker import ServiceWorker

__all__ = [
    "JOB_SCHEMA_VERSION",
    "JobError",
    "JobRecord",
    "JobStatus",
    "ServiceWorker",
    "collect_job",
    "job_path",
    "job_status",
    "jobs_dir",
    "list_jobs",
    "load_job",
    "submit_job",
    "write_metrics_snapshot",
]
