"""Queue executor specifics: dedup, order, persistence, janitor, and
sharing a queue with other drainers.

The on-disk contract: pending task files sort lexicographically into
the schedule, identical submissions coalesce on the canonical cache
key, ok results persist in the results store (a result-cache root) so
later executors (or a second run of the same figure) are served
without re-evaluating, a janitor requeues in-flight files orphaned by
a crashed drainer, and a drain waits on a key another drainer holds
instead of evaluating it again.
"""

import json
import os
import threading
import time

import pytest

from repro.backends import EvaluationPlan, EvaluationResult, MetricValue
from repro.core import HOUR, ModelParameters, SimulationPlan
from repro.exec import (
    EvaluationTask,
    InflightLease,
    QueueExecutor,
    TaskResult,
    WorkQueue,
)
from repro.exec.queue import INFLIGHT_SWEEP_AGE_SECONDS

TINY_SIM = SimulationPlan(warmup=2 * HOUR, observation=20 * HOUR, replications=2)
TINY = EvaluationPlan(simulation=TINY_SIM)


def make_task(index=0, n_processors=8192, base_seed=11, attempt=0):
    return EvaluationTask(
        index=index,
        series="s",
        x=float(index + 1),
        params=ModelParameters(n_processors=n_processors),
        plan=TINY,
        backend="analytical",
        base_seed=base_seed,
        attempt=attempt,
    )


def ok_result(task, fault_plan=None):
    """Canned evaluation: the task's index encoded as the mean."""
    evaluation = EvaluationResult(
        backend=task.backend,
        metrics={task.plan.metrics[0]: MetricValue(mean=float(task.index))},
    )
    return TaskResult.from_evaluation(task, evaluation)


def stored_entries(queue_dir):
    """Entry files in the queue's results store (a result-cache root)."""
    return [
        name
        for _, _, names in os.walk(os.path.join(queue_dir, "results"))
        for name in names
        if name.endswith(".json") and not name.startswith(".")
    ]


class TestCoalescing:
    def test_duplicate_submission_evaluates_once(self, tmp_path):
        executor = QueueExecutor(str(tmp_path))
        task = make_task()
        executor.submit(task)
        executor.submit(task)
        results = list(executor.drain())
        assert len(results) == 2
        assert all(r.ok for r in results)
        assert [r.coalesced for r in results] == [False, True]
        stats = executor.stats()
        assert stats["tasks_executed"] == 1
        assert stats["coalesced"] == 1

    def test_results_store_serves_second_executor(self, tmp_path):
        first = QueueExecutor(str(tmp_path))
        task = make_task()
        first.submit(task)
        [original] = list(first.drain())

        second = QueueExecutor(str(tmp_path))
        second.submit(task)
        [served] = list(second.drain())
        assert served.ok
        assert served.coalesced
        assert served.mean == original.mean
        assert second.stats()["tasks_executed"] == 0
        assert second.stats()["coalesced"] == 1

    def test_unreadable_stored_result_is_evaluated_again(self, tmp_path):
        first = QueueExecutor(str(tmp_path))
        task = make_task()
        first.submit(task)
        list(first.drain())
        entry = first.queue.results.entry_path(task.backend, task.cache_key())
        with open(entry, "w", encoding="utf-8") as handle:
            handle.write("{not json")

        second = QueueExecutor(str(tmp_path))
        second.submit(task)
        assert len(os.listdir(tmp_path / "pending")) == 1
        [result] = list(second.drain())
        assert result.ok and not result.coalesced
        assert second.stats()["tasks_executed"] == 1

    def test_distinct_seeds_are_distinct_work(self, tmp_path):
        executor = QueueExecutor(str(tmp_path))
        executor.submit(make_task(base_seed=11))
        executor.submit(make_task(base_seed=12))
        results = list(executor.drain())
        assert len(results) == 2
        assert executor.stats()["tasks_executed"] == 2
        assert executor.stats()["coalesced"] == 0

    def test_rides_on_pending_file_from_crashed_submitter(self, tmp_path):
        # A submitter that persisted its task and died: the next
        # submission of the same key must ride on the existing file
        # instead of enqueueing a duplicate.
        crashed = QueueExecutor(str(tmp_path))
        task = make_task()
        crashed.submit(task)  # persists pending/..., never drained

        survivor = QueueExecutor(str(tmp_path))
        survivor.submit(task)
        pending = os.listdir(tmp_path / "pending")
        assert len(pending) == 1
        [result] = list(survivor.drain())
        assert result.ok and not result.coalesced
        # The survivor ran the file itself: an evaluation, not a
        # coalesced submission.
        assert survivor.stats()["coalesced"] == 0
        assert survivor.stats()["tasks_executed"] == 1
        assert os.listdir(tmp_path / "pending") == []

    def test_coalesced_count_is_the_results_stamped_coalesced(self, tmp_path):
        # Every way a submission coalesces, in one drain: a rider on a
        # crashed submitter's file (run here) and its duplicate, a key
        # answered in the store, and a key another drainer answered
        # after it was submitted, with its duplicate.
        executor = QueueExecutor(str(tmp_path), run_task=ok_result)
        answered_later = make_task(index=2, n_processors=32768)
        executor.submit(answered_later)
        other = WorkQueue(str(tmp_path))
        other.run_claim(other.claim(), ok_result)

        stored = make_task(index=1, n_processors=16384)
        first = QueueExecutor(str(tmp_path), run_task=ok_result)
        first.submit(stored)
        list(first.drain())
        rider = make_task(index=0, n_processors=8192)
        QueueExecutor(str(tmp_path)).submit(rider)  # never drained

        for task in (rider, rider, stored, answered_later):
            executor.submit(task)
        results = list(executor.drain())
        assert sorted((r.index, r.coalesced) for r in results) == [
            (0, False), (0, True), (1, True), (2, True), (2, True),
        ]
        assert executor.stats()["coalesced"] == sum(
            r.coalesced for r in results
        )
        assert executor.stats()["tasks_executed"] == 1


class TestOrdering:
    def test_submission_order_is_the_schedule(self, tmp_path):
        executed = []

        def spy(task, *args):
            executed.append(task.index)
            return ok_result(task)

        executor = QueueExecutor(str(tmp_path), run_task=spy)
        for index, procs in enumerate((8192, 16384, 32768)):
            executor.submit(make_task(index=index, n_processors=procs))
        list(executor.drain())
        assert executed == [0, 1, 2]


class TestCrashResume:
    def test_fresh_executor_drains_persisted_tasks(self, tmp_path):
        # Submit, "crash" (abandon the executor), then resume: a new
        # executor submitting the same work drains the persisted file.
        crashed = QueueExecutor(str(tmp_path))
        for index, procs in enumerate((8192, 16384)):
            crashed.submit(make_task(index=index, n_processors=procs))
        assert len(os.listdir(tmp_path / "pending")) == 2

        resumed = QueueExecutor(str(tmp_path))
        for index, procs in enumerate((8192, 16384)):
            resumed.submit(make_task(index=index, n_processors=procs))
        results = list(resumed.drain())
        assert [r.ok for r in results] == [True, True]
        assert os.listdir(tmp_path / "pending") == []
        # Both answers persist for the *next* crashed run.
        assert len(stored_entries(tmp_path)) == 2

    def test_error_results_are_not_persisted(self, tmp_path):
        def flaky(task, *args):
            if task.index == 1:
                return TaskResult(
                    status="error", index=task.index, series=task.series,
                    x=task.x, attempt=task.attempt, seed_used=task.seed,
                    failure={"error_type": "RuntimeError",
                             "error_message": "injected"},
                )
            return ok_result(task)

        executor = QueueExecutor(str(tmp_path), run_task=flaky)
        executor.submit(make_task(index=0, n_processors=8192))
        executor.submit(make_task(index=1, n_processors=16384))
        results = {r.index: r for r in executor.drain()}
        assert results[0].ok
        assert not results[1].ok
        # Only the ok result landed in the store: failures must be
        # re-evaluated, never replayed.
        assert len(stored_entries(tmp_path)) == 1

    def test_unreadable_task_file_is_dropped_with_note(self, tmp_path):
        executor = QueueExecutor(str(tmp_path))
        task = make_task()
        executor.submit(task)
        [path] = [
            os.path.join(tmp_path, "pending", name)
            for name in os.listdir(tmp_path / "pending")
        ]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{truncated")
        [result] = list(executor.drain())
        # The in-memory submission still completes (fallback path).
        assert result.ok
        assert any("unreadable task file" in note for note in executor.notes)


class TestJanitor:
    @staticmethod
    def plant_inflight(tmp_path, age=None):
        task = make_task()
        name = f"000000-00000000-{task.cache_key()}.json"
        os.makedirs(tmp_path / "inflight", exist_ok=True)
        path = tmp_path / "inflight" / name
        path.write_text(
            json.dumps(task.to_json_dict(), sort_keys=True), encoding="utf-8"
        )
        if age is not None:
            old = os.path.getmtime(path) - age
            os.utime(path, (old, old))
        return name

    def test_orphaned_inflight_is_requeued_and_counted(self, tmp_path):
        from repro.obs import metrics

        name = self.plant_inflight(tmp_path, age=INFLIGHT_SWEEP_AGE_SECONDS + 5)
        counter = metrics.registry().counter("queue.orphans_requeued")
        before = counter.value
        executor = QueueExecutor(str(tmp_path))
        assert os.listdir(tmp_path / "inflight") == []
        assert os.listdir(tmp_path / "pending") == [name]
        assert counter.value == before + 1
        assert executor.stats()["orphans_requeued"] == 1
        assert any("janitor" in note for note in executor.notes)

    def test_fresh_inflight_is_left_for_its_drainer(self, tmp_path):
        name = self.plant_inflight(tmp_path)  # mtime = now
        executor = QueueExecutor(str(tmp_path))
        assert os.listdir(tmp_path / "inflight") == [name]
        assert executor.stats()["orphans_requeued"] == 0

    def test_orphan_age_zero_requeues_immediately(self, tmp_path):
        # The tests' (and an impatient operator's) escape hatch.
        name = self.plant_inflight(tmp_path)
        executor = QueueExecutor(str(tmp_path), orphan_age=0.0)
        assert os.listdir(tmp_path / "pending") == [name]
        # The requeued task is then drainable by a matching submission.
        executor.submit(make_task())
        [result] = list(executor.drain())
        assert result.ok


class TestPersistentCounter:
    """The FIFO tie-break counter survives restarts and is shared by
    every process submitting to one queue directory (regression: it
    used to be a per-process ``self._counter = 0``, so a second
    executor restarted the numbering and broke submission order)."""

    @staticmethod
    def pending_names(tmp_path):
        return sorted(os.listdir(tmp_path / "pending"))

    def test_next_counter_is_monotonic_and_persisted(self, tmp_path):
        values = [WorkQueue(str(tmp_path)).next_counter() for _ in range(3)]
        assert values == [0, 1, 2]

    def test_counter_recovers_from_queued_filenames(self, tmp_path):
        # Even with the counter file gone, the directory scan finds
        # the highest queued counter and continues past it.
        executor = QueueExecutor(str(tmp_path))
        executor.submit(make_task(index=0, n_processors=8192))
        executor.submit(make_task(index=1, n_processors=16384))
        os.unlink(tmp_path / "counter")
        assert executor.queue.next_counter() == 2

    def test_two_executors_interleave_in_submission_order(self, tmp_path):
        # Two processes (modelled by two instances) submit alternately
        # to one queue: the on-disk schedule must be the true global
        # submission order, and a drain must execute it in that order.
        executed = []

        def spy(task, *args):
            executed.append(task.index)
            return ok_result(task)

        first = QueueExecutor(str(tmp_path))
        second = QueueExecutor(str(tmp_path), run_task=spy)
        sizes = (8192, 16384, 32768, 65536)
        submitters = (first, second, first, second)
        for index, (executor, procs) in enumerate(zip(submitters, sizes)):
            executor.submit(make_task(index=index, n_processors=procs))

        names = self.pending_names(tmp_path)
        counters = [int(name.split("-", 2)[1]) for name in names]
        assert counters == [0, 1, 2, 3]
        expected_keys = [
            make_task(index=i, n_processors=p).cache_key()
            for i, p in enumerate(sizes)
        ]
        assert [name.split("-", 2)[2][:-len(".json")] for name in names] == (
            expected_keys
        )

        # ``second`` drains everything (foreign files included): the
        # execution order is the global submission order.
        list(second.drain())
        assert executed == [0, 1, 2, 3]

    def test_order_survives_a_restart(self, tmp_path):
        # Submit two points, "crash", then a fresh executor submits two
        # more: the newcomers must queue *after* the survivors.
        crashed = QueueExecutor(str(tmp_path))
        crashed.submit(make_task(index=0, n_processors=8192))
        crashed.submit(make_task(index=1, n_processors=16384))

        executed = []

        def spy(task, *args):
            executed.append(task.index)
            return ok_result(task)

        restarted = QueueExecutor(str(tmp_path), run_task=spy)
        restarted.submit(make_task(index=2, n_processors=32768))
        restarted.submit(make_task(index=3, n_processors=65536))
        counters = [
            int(name.split("-", 2)[1]) for name in self.pending_names(tmp_path)
        ]
        assert counters == [0, 1, 2, 3]
        list(restarted.drain())
        assert executed == [0, 1, 2, 3]


class TestInflightLease:
    """Heartbeat leases: a live drainer's claim is never requeued, a
    crashed drainer's claim is (regression: the janitor used to treat
    the claim's creation mtime as its age, so any slow task older than
    the threshold was double-run)."""

    def plant(self, tmp_path, mtime):
        os.makedirs(tmp_path / "pending", exist_ok=True)
        os.makedirs(tmp_path / "inflight", exist_ok=True)
        task = make_task()
        path = tmp_path / "inflight" / f"000000-00000000-{task.cache_key()}.json"
        path.write_text(
            json.dumps(task.to_json_dict(), sort_keys=True), encoding="utf-8"
        )
        os.utime(path, (mtime, mtime))
        return path

    def test_heartbeated_slow_task_is_not_requeued(self, tmp_path):
        # The claim is *hours* older than orphan_age in wall-clock
        # terms, but its lease was beaten one second ago: keep it.
        now = 1_000_000.0
        path = self.plant(tmp_path, mtime=now - 1.0)
        queue = WorkQueue(str(tmp_path), orphan_age=60.0, clock=lambda: now)
        assert queue.sweep() == 0
        assert path.exists()

    def test_crashed_claim_is_requeued(self, tmp_path):
        now = 1_000_000.0
        path = self.plant(tmp_path, mtime=now - 120.0)
        queue = WorkQueue(str(tmp_path), orphan_age=60.0, clock=lambda: now)
        assert queue.sweep() == 1
        assert not path.exists()
        assert len(os.listdir(tmp_path / "pending")) == 1

    def test_executor_janitor_uses_injected_clock(self, tmp_path):
        now = 1_000_000.0
        live = self.plant(tmp_path, mtime=now - 5.0)
        executor = QueueExecutor(
            str(tmp_path), orphan_age=60.0, clock=lambda: now
        )
        assert live.exists()
        assert executor.stats()["orphans_requeued"] == 0

    def test_beat_touches_the_claim(self, tmp_path):
        path = tmp_path / "claim.json"
        path.write_text("{}", encoding="utf-8")
        os.utime(path, (1.0, 1.0))
        lease = InflightLease(str(path), orphan_age=60.0, clock=lambda: 42.0)
        lease.beat()
        assert os.path.getmtime(path) == 42.0

    def test_beat_on_vanished_claim_is_ignored(self, tmp_path):
        lease = InflightLease(str(tmp_path / "gone.json"), orphan_age=60.0)
        lease.beat()  # must not raise

    def test_lease_starts_at_the_claim(self, tmp_path):
        # A task that waited in pending/ for longer than orphan_age is
        # claimed with a fresh lease: a sibling's janitor, sweeping
        # before the first heartbeat, must leave it alone.
        now = time.time()
        executor = QueueExecutor(str(tmp_path))
        executor.submit(make_task())
        [name] = os.listdir(tmp_path / "pending")
        waited = now - 3 * INFLIGHT_SWEEP_AGE_SECONDS
        os.utime(tmp_path / "pending" / name, (waited, waited))
        assert WorkQueue(str(tmp_path), clock=lambda: now).claim()
        sibling = WorkQueue(str(tmp_path), clock=lambda: now + 1.0)
        assert sibling.sweep() == 0
        assert os.listdir(tmp_path / "inflight") == [name]

    def test_zero_orphan_age_disables_the_thread(self, tmp_path):
        path = tmp_path / "claim.json"
        path.write_text("{}", encoding="utf-8")
        lease = InflightLease(str(path), orphan_age=0.0)
        assert lease.interval == 0.0
        with lease:
            assert lease._thread is None

    def test_heartbeat_thread_keeps_lease_fresh(self, tmp_path):
        # Real thread, real clock: a claim planted stale comes back
        # fresh while the lease is held.
        path = tmp_path / "claim.json"
        path.write_text("{}", encoding="utf-8")
        stale = time.time() - 3600.0
        os.utime(path, (stale, stale))
        with InflightLease(str(path), orphan_age=0.3):
            time.sleep(0.35)
        assert time.time() - os.path.getmtime(path) < 1.0

    def test_sibling_janitor_spares_a_live_slow_task(self, tmp_path):
        # End to end: while one executor runs a task slower than
        # orphan_age, a sibling executor's startup janitor runs — the
        # heartbeat must keep the claim out of its reach.
        orphan_age = 0.5

        def slow(task, *args):
            time.sleep(0.6)
            sibling = QueueExecutor(str(tmp_path), orphan_age=orphan_age)
            assert os.listdir(tmp_path / "pending") == []
            assert sibling.stats()["orphans_requeued"] == 0
            return ok_result(task)

        executor = QueueExecutor(
            str(tmp_path), run_task=slow, orphan_age=orphan_age
        )
        executor.submit(make_task())
        [result] = list(executor.drain())
        assert result.ok
        assert executor.stats()["tasks_executed"] == 1


def error_result(task, fault_plan=None):
    return TaskResult(
        status="error", index=task.index, series=task.series, x=task.x,
        attempt=task.attempt, seed_used=task.seed,
        failure={"error_type": "RuntimeError", "error_message": "injected"},
    )


class TestSharedQueue:
    """A drain beside another drainer: a key that drainer holds is
    waited on, never evaluated a second time (regression: the drain
    evaluated from memory whenever nothing was claimable, so a sweep
    beside ``repro worker`` processes repeated every point they took)."""

    @staticmethod
    def submit_and_claim(tmp_path, **kwargs):
        """Submit one task, then claim its file as another drainer."""
        executor = QueueExecutor(str(tmp_path), **kwargs)
        executor.submit(make_task())
        other = WorkQueue(str(tmp_path))
        claimed = other.claim()
        assert claimed is not None
        return executor, other, claimed

    def test_sweep_waits_for_a_live_claim(self, tmp_path):
        executor, other, claimed = self.submit_and_claim(tmp_path)

        def slow_ok(task):
            time.sleep(0.3)
            return ok_result(task)

        drainer = threading.Thread(
            target=other.run_claim, args=(claimed, slow_ok)
        )
        drainer.start()
        try:
            [result] = list(executor.drain())
        finally:
            drainer.join(timeout=30)
        assert not drainer.is_alive()
        assert result.ok and result.coalesced
        assert result.mean == 0.0
        assert executor.stats()["tasks_executed"] == 0
        assert executor.stats()["coalesced"] == 1

    def test_expired_claim_is_requeued_and_run_once(self, tmp_path):
        now = [time.time()]
        executed = []

        def spy(task, *args):
            executed.append(task.index)
            return ok_result(task)

        executor, _, _ = self.submit_and_claim(
            tmp_path, run_task=spy, clock=lambda: now[0]
        )
        # The other drainer died holding the claim: once its lease is
        # past orphan_age, the drain's janitor requeues it.
        now[0] += INFLIGHT_SWEEP_AGE_SECONDS + 5.0
        [result] = list(executor.drain())
        assert result.ok and not result.coalesced
        assert executed == [0]
        assert executor.stats()["tasks_executed"] == 1
        assert executor.stats()["orphans_requeued"] == 1
        assert os.listdir(tmp_path / "pending") == []
        assert os.listdir(tmp_path / "inflight") == []

    def test_key_another_drainer_failed_is_evaluated_here(self, tmp_path):
        executor, other, claimed = self.submit_and_claim(tmp_path)
        other.run_claim(claimed, error_result)  # not stored, file dropped
        [result] = list(executor.drain())
        assert result.ok and not result.coalesced
        assert executor.stats()["tasks_executed"] == 1
        assert len(stored_entries(tmp_path)) == 1

    def test_interrupt_gives_the_claim_back(self, tmp_path):
        def interrupted(task, *args):
            raise KeyboardInterrupt

        executor = QueueExecutor(str(tmp_path), run_task=interrupted)
        executor.submit(make_task())
        with pytest.raises(KeyboardInterrupt):
            list(executor.drain())
        assert len(os.listdir(tmp_path / "pending")) == 1
        assert os.listdir(tmp_path / "inflight") == []


class TestResultsStore:
    def test_results_store_is_a_result_cache(self, tmp_path):
        # The queue stores the same EvaluationResult files a cache
        # directory holds, at the same relative paths.
        from repro.experiments.figures import run_figure
        from repro.experiments.resilience import ResilienceOptions

        queue_dir = tmp_path / "queue"
        cache_dir = tmp_path / "cache"
        run_figure(
            "fig4a", preset="quick", seed=1, max_points=4,
            executor="queue", queue_dir=str(queue_dir),
            resilience=ResilienceOptions(cache_dir=str(cache_dir)),
        )
        results = queue_dir / "results"
        stored = [
            path.relative_to(results) for path in results.rglob("*.json")
            if not path.name.startswith(".")
        ]
        assert len(stored) == 4
        for relative in stored:
            assert (cache_dir / relative).read_bytes() == (
                results / relative
            ).read_bytes()
