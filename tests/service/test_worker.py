"""ServiceWorker: the drain loop, leases, shutdown, accounting."""

import json
import os
import signal
import time
from dataclasses import replace

from repro.backends import EvaluationResult, MetricValue
from repro.exec import QueueExecutor, TaskResult
from repro.exec.task import tighten_budget
from repro.experiments.config import plan_for
from repro.experiments.figures import FIGURE_SPECS
from repro.experiments.runner import build_sweep_tasks, sweep_eval_plan
from repro.service.worker import ServiceWorker


def small_tasks(max_points=2):
    """The first quick fig4a points at seed 3 on the analytical
    backend, built as a sweep builds them."""
    spec = FIGURE_SPECS["fig4a"]
    eval_plan = sweep_eval_plan(spec.metric, plan_for("quick"), 3)
    return build_sweep_tasks(
        spec.points()[:max_points], eval_plan, 3, "analytical"
    )


def submit_small(queue_dir, max_points=2, tasks=None):
    """Queue tasks as a queue sweep submits them; returns their keys."""
    executor = QueueExecutor(str(queue_dir))
    tasks = small_tasks(max_points) if tasks is None else tasks
    for task in tasks:
        executor.submit(task)
    return [task.cache_key() for task in tasks]


def canned(status="ok"):
    def run(task, *args):
        if status == "ok":
            return TaskResult.from_evaluation(task, EvaluationResult(
                backend=task.backend,
                metrics={task.plan.metrics[0]: MetricValue(mean=0.5)},
            ))
        return TaskResult(
            status=status, index=task.index, series=task.series, x=task.x,
            attempt=task.attempt, seed_used=task.seed,
            failure={"error_type": "RuntimeError", "error_message": "boom"},
        )

    return run


def stored_keys(queue_dir):
    """Keys with an entry in the queue's results store (a result-cache
    root), sorted."""
    return sorted(
        name[: -len(".json")]
        for _, _, names in os.walk(os.path.join(queue_dir, "results"))
        for name in names
        if name.endswith(".json") and not name.startswith(".")
    )


class TestDrainLoop:
    def test_drains_queue_and_stores_results(self, tmp_path):
        keys = submit_small(tmp_path)
        worker = ServiceWorker(str(tmp_path), idle_exit=0.0)
        assert worker.run() == 2
        assert os.listdir(tmp_path / "pending") == []
        assert os.listdir(tmp_path / "inflight") == []
        assert stored_keys(tmp_path) == sorted(keys)

    def test_max_tasks_bounds_the_run(self, tmp_path):
        submit_small(tmp_path)
        worker = ServiceWorker(
            str(tmp_path), idle_exit=0.0, max_tasks=1, run_task=canned()
        )
        assert worker.run() == 1
        assert len(os.listdir(tmp_path / "pending")) == 1

    def test_failed_task_is_logged_not_stored(self, tmp_path):
        submit_small(tmp_path)
        worker = ServiceWorker(
            str(tmp_path), idle_exit=0.0, run_task=canned("error"),
            worker_id="w-fail",
        )
        worker.run()
        assert worker.failed == 2
        assert stored_keys(tmp_path) == []
        log = (tmp_path / "workers" / "w-fail.log.jsonl").read_text()
        statuses = [json.loads(line)["status"] for line in log.splitlines()]
        assert statuses == ["error", "error"]

    def test_point_timeout_becomes_the_task_budget(self, tmp_path):
        keys = submit_small(tmp_path)
        budgets = []

        def spy(task, *args):
            budgets.append(task.plan.simulation.wall_clock_budget)
            return canned()(task)

        ServiceWorker(
            str(tmp_path), idle_exit=0.0, point_timeout=7.5, run_task=spy
        ).run()
        assert budgets == [7.5, 7.5]
        # The budget does not fork the key: the results are filed
        # under the keys the sweep submitted.
        assert stored_keys(tmp_path) == sorted(keys)

    def test_sweep_point_timeout_bounds_the_worker(self, tmp_path):
        # A sweep's --point-timeout travels in the task plan; the
        # worker's own timeout only ever lowers it.
        tasks = [
            replace(task, plan=tighten_budget(task.plan, 5.0))
            for task in small_tasks()
        ]
        submit_small(tmp_path, tasks=tasks)
        budgets = []

        def spy(task, *args):
            budgets.append(task.plan.simulation.wall_clock_budget)
            return canned()(task)

        ServiceWorker(
            str(tmp_path), idle_exit=0.0, point_timeout=7.5, run_task=spy
        ).run()
        assert budgets == [5.0, 5.0]

    def test_unreadable_task_file_is_dropped(self, tmp_path):
        # Two task files no drainer can run: a torn write, and a task
        # queued for the removed batched kernel. Both are dropped, and
        # the worker reports each one.
        submit_small(tmp_path, max_points=1)
        pending = tmp_path / "pending"
        (queued,) = os.listdir(pending)
        payload = json.loads((pending / queued).read_text(encoding="utf-8"))
        payload["plan"]["simulation"].update(kernel="batched", batch_size=8)
        (pending / queued).write_text(json.dumps(payload), encoding="utf-8")
        (pending / "000000-00000000-dead.json").write_text(
            "{truncated", encoding="utf-8"
        )
        worker = ServiceWorker(str(tmp_path), idle_exit=0.0)
        assert worker.run() == 0
        assert os.listdir(pending) == []
        assert worker.dropped == 2
        assert worker.failed == 0
        assert len(worker.notes) == 2
        torn, batched = sorted(worker.notes, key=lambda n: queued in n)
        assert "000000-00000000-dead.json" in torn
        assert queued in batched and "'batched'" in batched
        assert all(
            note.startswith("work queue: dropped unreadable task file")
            for note in worker.notes
        )

    def test_worker_command_prints_drops(self, tmp_path, monkeypatch, capsys):
        from repro.experiments import cli

        os.makedirs(tmp_path / "pending")
        (tmp_path / "pending" / "000000-00000000-dead.json").write_text(
            "{truncated", encoding="utf-8"
        )
        monkeypatch.setattr(
            ServiceWorker, "install_signal_handlers", lambda self: None
        )
        rc = cli.main(["worker", "--queue-dir", str(tmp_path),
                       "--idle-exit", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "note: work queue: dropped unreadable task file " \
            "000000-00000000-dead.json" in out
        assert "0 task(s) executed, 0 failed, 1 dropped" in out

    def test_evaluation_log_and_snapshot(self, tmp_path):
        keys = submit_small(tmp_path)
        worker = ServiceWorker(str(tmp_path), idle_exit=0.0, worker_id="w1")
        worker.run()
        log_path = tmp_path / "workers" / "w1.log.jsonl"
        lines = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert sorted(line["key"] for line in lines) == sorted(keys)
        assert all(line["worker"] == "w1" for line in lines)
        assert all(line["status"] == "ok" for line in lines)
        snapshot_path = tmp_path / "obs" / "w1.metrics.json"
        with open(snapshot_path, encoding="utf-8") as handle:
            snapshot = json.load(handle)
        assert {"counters", "gauges", "timings"} <= set(snapshot)


class TestShutdown:
    def test_request_stop_finishes_current_task(self, tmp_path):
        submit_small(tmp_path)
        worker = ServiceWorker(str(tmp_path), idle_exit=None)
        inner = canned()

        def stop_during_first(task, *args):
            worker.request_stop()
            return inner(task, *args)

        worker._run_task = stop_during_first
        # The first claimed task completes (and is stored) before the
        # loop honours the stop flag.
        assert worker.run() == 1
        assert len(stored_keys(tmp_path)) == 1
        assert os.listdir(tmp_path / "inflight") == []

    def test_sigterm_routes_to_request_stop(self, tmp_path):
        worker = ServiceWorker(str(tmp_path), idle_exit=None)
        previous_term = signal.getsignal(signal.SIGTERM)
        previous_int = signal.getsignal(signal.SIGINT)
        try:
            worker.install_signal_handlers()
            handler = signal.getsignal(signal.SIGTERM)
            handler(signal.SIGTERM, None)
            assert worker._stop_requested
        finally:
            signal.signal(signal.SIGTERM, previous_term)
            signal.signal(signal.SIGINT, previous_int)

    def test_idle_exit_ends_an_empty_run(self, tmp_path):
        worker = ServiceWorker(
            str(tmp_path), idle_exit=0.2, poll_interval=0.01
        )
        started = time.time()
        assert worker.run() == 0
        assert time.time() - started < 5.0


class TestLeaseIntegration:
    def test_slow_task_survives_a_sibling_janitor(self, tmp_path):
        # A worker's claim must stay alive (heartbeat) while a second
        # worker's janitor sweeps with a threshold shorter than the
        # task's runtime.
        submit_small(tmp_path, max_points=1)
        orphan_age = 0.5
        observed = {}

        def slow(task, *args):
            time.sleep(0.6)
            sibling = ServiceWorker(
                str(tmp_path), idle_exit=None, orphan_age=orphan_age
            )
            # Force the sibling's janitor right now.
            observed["requeued"] = sibling.queue.sweep()
            observed["pending"] = os.listdir(tmp_path / "pending")
            return canned()(task, *args)

        worker = ServiceWorker(
            str(tmp_path), idle_exit=0.0, orphan_age=orphan_age,
            run_task=slow,
        )
        assert worker.run() == 1
        assert observed["requeued"] == 0
        assert observed["pending"] == []

    def test_crashed_workers_claim_is_recovered(self, tmp_path):
        # Simulate a crash: a claim sits in inflight/ with an expired
        # lease; the next worker's janitor requeues and executes it.
        keys = submit_small(tmp_path, max_points=1)
        claimed = ServiceWorker(
            str(tmp_path), idle_exit=0.0, max_tasks=0
        )
        path = claimed.queue.claim()
        assert path is not None
        stale = time.time() - 3600.0
        os.utime(path, (stale, stale))

        worker = ServiceWorker(str(tmp_path), idle_exit=0.0, orphan_age=60.0)
        # The janitor only runs once per orphan_age; force its first
        # pass by making the loop believe a period elapsed.
        assert worker.run() == 1
        assert os.listdir(tmp_path / "inflight") == []
        assert stored_keys(tmp_path) == keys
