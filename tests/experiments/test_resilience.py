"""Tests for fault-tolerant sweep execution: checkpoint/resume,
retry with backoff, hang supervision, fallback backends and the
event log the supervisor keeps for the run manifest."""

import json
import os

import pytest

from repro.core import HOUR, ModelParameters, SimulationPlan
from repro.experiments import SweepPoint, run_sweep
from repro.experiments.faultinject import (
    FaultPlan,
    SweepAborted,
    corrupt_journal_line,
    corrupt_journal_tail,
)
from repro.experiments.resilience import (
    CheckpointError,
    CheckpointJournal,
    ResilienceOptions,
    RetryPolicy,
    derive_attempt_seed,
)

TINY = SimulationPlan(warmup=1 * HOUR, observation=10 * HOUR, replications=1)
FAST_RETRY = RetryPolicy(max_retries=2, backoff_base=0.01, backoff_max=0.05)


def make_points(count=4):
    base = ModelParameters(n_processors=8192)
    return [SweepPoint("s", float(i + 1), base) for i in range(count)]


def sweep(points, seed=7, **kwargs):
    return run_sweep(
        "fig-test", "t", "x", "useful_work_fraction", points, TINY,
        seed=seed, **kwargs,
    )


class TestRetryPolicy:
    """Backoff schedule and retry-seed derivation.

    The seed convention (``retry/{seed}/{attempt}``) is a
    reproducibility contract: these tests pin it down so a refactor
    cannot silently change which sample path a retry runs.
    """

    def test_backoff_schedule(self):
        policy = RetryPolicy(max_retries=5, backoff_base=0.5,
                             backoff_max=3.0)
        assert policy.delay_for(1) == 0.5
        assert policy.delay_for(2) == 1.0
        assert policy.delay_for(3) == 2.0
        assert policy.delay_for(4) == 3.0  # capped
        assert policy.delay_for(0) == 0.0

    def test_zero_base_means_no_delay(self):
        policy = RetryPolicy(max_retries=3, backoff_base=0.0)
        assert policy.delay_for(1) == 0.0
        assert policy.delay_for(3) == 0.0

    def test_exponential_growth(self):
        policy = RetryPolicy(max_retries=4, backoff_base=0.5,
                             backoff_max=100.0)
        assert policy.delay_for(1) == pytest.approx(0.5)
        assert policy.delay_for(2) == pytest.approx(1.0)
        assert policy.delay_for(3) == pytest.approx(2.0)

    def test_cap_saturation(self):
        policy = RetryPolicy(max_retries=10, backoff_base=1.0,
                             backoff_max=5.0)
        assert policy.delay_for(1) == pytest.approx(1.0)
        assert policy.delay_for(3) == pytest.approx(4.0)
        assert policy.delay_for(4) == pytest.approx(5.0)
        assert policy.delay_for(9) == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_max=-1.0)
        with pytest.raises(TypeError, match="backoff_factor"):
            RetryPolicy(backoff_factor=3.0)  # the factor is 2

    def test_attempt_seed_derivation(self):
        assert derive_attempt_seed(123, 0) == 123
        first_retry = derive_attempt_seed(123, 1)
        assert first_retry != 123
        assert first_retry == derive_attempt_seed(123, 1)  # stable
        assert first_retry != derive_attempt_seed(123, 2)
        assert first_retry != derive_attempt_seed(124, 1)

    def test_attempt_zero_is_the_base_seed(self):
        assert derive_attempt_seed(7, 0) == 7
        assert derive_attempt_seed(0, 0) == 0

    def test_attempts_get_distinct_seeds(self):
        seeds = [derive_attempt_seed(7, attempt) for attempt in range(6)]
        assert len(set(seeds)) == len(seeds)

    def test_derivation_is_stable(self):
        # The exact values are part of the on-disk reproducibility
        # contract (journals and caches key on seeds); recompute twice.
        assert derive_attempt_seed(7, 3) == derive_attempt_seed(7, 3)
        assert derive_attempt_seed(7, 3) != derive_attempt_seed(8, 3)

    def test_matches_the_stream_key_convention(self):
        from repro.san.rng import stable_stream_key

        assert derive_attempt_seed(42, 2) == stable_stream_key("retry/42/2")


class TestDuplicatePointDetection:
    def test_duplicate_series_x_rejected(self):
        base = ModelParameters(n_processors=8192)
        points = [
            SweepPoint("s", 1.0, base),
            # Same (series, x), different configuration: previously this
            # silently overwrote the total-useful-work scale factor.
            SweepPoint("s", 1.0, base.with_overrides(n_processors=16384)),
        ]
        with pytest.raises(ValueError, match="duplicate sweep point"):
            sweep(points)

    def test_same_x_different_series_allowed(self):
        base = ModelParameters(n_processors=8192)
        points = [SweepPoint("a", 1.0, base), SweepPoint("b", 1.0, base)]
        figure = sweep(points)
        assert set(figure.series) == {"a", "b"}


class TestRetries:
    def test_crash_is_retried_and_succeeds(self):
        plan = FaultPlan().crash(0, attempts=(0,))
        figure = sweep(
            make_points(2),
            resilience=ResilienceOptions(retry=FAST_RETRY, fault_plan=plan),
        )
        assert not figure.failures
        assert len(figure.series["s"]) == 2

    def test_exhausted_retries_reported_not_raised(self):
        plan = FaultPlan().crash(1, attempts=(0, 1, 2))
        figure = sweep(
            make_points(3),
            resilience=ResilienceOptions(retry=FAST_RETRY, fault_plan=plan),
        )
        assert len(figure.failures) == 1
        report = figure.failures[0]
        assert report.series == "s"
        assert report.x == 2.0
        assert report.attempts == 3
        assert report.error_type == "InjectedCrash"
        assert "injected crash" in report.error_message
        assert "InjectedCrash" in report.traceback
        # The other points survived, and the failure is summarised in notes.
        assert [x for x, _, _ in figure.series["s"]] == [1.0, 3.0]
        assert any("FAILED" in note for note in figure.notes)

    def test_no_retries_means_single_attempt(self):
        plan = FaultPlan().crash(0, attempts=(0,))
        figure = sweep(
            make_points(1),
            resilience=ResilienceOptions(
                retry=RetryPolicy(max_retries=0), fault_plan=plan
            ),
        )
        assert len(figure.failures) == 1
        assert figure.failures[0].attempts == 1

    def test_progress_reaches_total_despite_failures(self):
        calls = []
        plan = FaultPlan().crash(0, attempts=(0, 1, 2))
        sweep(
            make_points(2),
            progress=lambda done, total: calls.append((done, total)),
            resilience=ResilienceOptions(retry=FAST_RETRY, fault_plan=plan),
        )
        assert calls[-1] == (2, 2)


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_bit_identical(self, tmp_path):
        points = make_points(4)
        reference = sweep(points)

        plan = FaultPlan().abort_after_points(2)
        with pytest.raises(SweepAborted):
            sweep(
                points,
                resilience=ResilienceOptions(
                    checkpoint_dir=str(tmp_path), fault_plan=plan
                ),
            )
        journal_path = tmp_path / "fig-test.journal.jsonl"
        assert journal_path.exists()
        # header + 2 completed points
        assert len(journal_path.read_text().splitlines()) == 3

        resumed = sweep(
            points, resilience=ResilienceOptions(checkpoint_dir=str(tmp_path))
        )
        assert resumed.series == reference.series
        assert any("resumed" in note for note in resumed.notes)

    def test_resumed_points_are_not_resimulated(self, tmp_path):
        points = make_points(3)
        sweep(points, resilience=ResilienceOptions(checkpoint_dir=str(tmp_path)))

        # A crash-everything plan proves nothing runs on resume: the
        # sweep still succeeds because every point comes from the journal.
        plan = FaultPlan()
        for index in range(len(points)):
            plan.crash(index, attempts=(0, 1, 2))
        resumed = sweep(
            points,
            resilience=ResilienceOptions(
                checkpoint_dir=str(tmp_path), retry=FAST_RETRY, fault_plan=plan
            ),
        )
        assert not resumed.failures
        assert len(resumed.series["s"]) == 3

    def test_no_resume_discards_journal(self, tmp_path):
        points = make_points(2)
        sweep(points, resilience=ResilienceOptions(checkpoint_dir=str(tmp_path)))
        plan = FaultPlan().crash(0, attempts=(0, 1, 2))
        figure = sweep(
            points,
            resilience=ResilienceOptions(
                checkpoint_dir=str(tmp_path), resume=False,
                retry=FAST_RETRY, fault_plan=plan,
            ),
        )
        # resume=False re-simulated everything, so the injected crash bit.
        assert len(figure.failures) == 1

    def test_mismatched_configuration_refuses_resume(self, tmp_path):
        points = make_points(2)
        sweep(points, resilience=ResilienceOptions(checkpoint_dir=str(tmp_path)))
        with pytest.raises(CheckpointError, match="different sweep configuration"):
            sweep(
                points, seed=8,
                resilience=ResilienceOptions(checkpoint_dir=str(tmp_path)),
            )

    def test_progress_counts_resumed_points(self, tmp_path):
        points = make_points(3)
        plan = FaultPlan().abort_after_points(2)
        with pytest.raises(SweepAborted):
            sweep(
                points,
                resilience=ResilienceOptions(
                    checkpoint_dir=str(tmp_path), fault_plan=plan
                ),
            )
        calls = []
        sweep(
            points,
            progress=lambda done, total: calls.append((done, total)),
            resilience=ResilienceOptions(checkpoint_dir=str(tmp_path)),
        )
        assert calls[0] == (2, 3)
        assert calls[-1] == (3, 3)


class TestJournalCorruption:
    def run_and_abort(self, tmp_path, points, after=2):
        plan = FaultPlan().abort_after_points(after)
        with pytest.raises(SweepAborted):
            sweep(
                points,
                resilience=ResilienceOptions(
                    checkpoint_dir=str(tmp_path), fault_plan=plan
                ),
            )
        return os.path.join(str(tmp_path), "fig-test.journal.jsonl")

    def test_torn_tail_is_truncated_and_resume_succeeds(self, tmp_path):
        points = make_points(4)
        reference = sweep(points)
        journal_path = self.run_and_abort(tmp_path, points)
        corrupt_journal_tail(journal_path)
        resumed = sweep(
            points, resilience=ResilienceOptions(checkpoint_dir=str(tmp_path))
        )
        assert resumed.series == reference.series
        assert any("corrupt" in note for note in resumed.notes)

    def test_mid_file_corruption_keeps_valid_prefix(self, tmp_path):
        points = make_points(4)
        reference = sweep(points)
        journal_path = self.run_and_abort(tmp_path, points, after=3)
        corrupt_journal_line(journal_path, 2)  # second point record
        resumed = sweep(
            points, resilience=ResilienceOptions(checkpoint_dir=str(tmp_path))
        )
        # Only the first point survived the corruption; the rest were
        # re-simulated, and the figure still matches bit-identically.
        assert resumed.series == reference.series

    def test_corrupt_header_starts_fresh(self, tmp_path):
        points = make_points(2)
        reference = sweep(points)
        journal_path = self.run_and_abort(tmp_path, points, after=1)
        corrupt_journal_line(journal_path, 0)  # destroy the header
        figure = sweep(
            points, resilience=ResilienceOptions(checkpoint_dir=str(tmp_path))
        )
        assert figure.series == reference.series
        assert any("unusable header" in note for note in figure.notes)


class TestJournalUnit:
    def test_fingerprint_sensitivity(self):
        signatures = [("s", 1.0, "params-a"), ("s", 2.0, "params-b")]
        base = CheckpointJournal.fingerprint("f", "m", 0, TINY, signatures)
        assert base == CheckpointJournal.fingerprint("f", "m", 0, TINY, signatures)
        assert base != CheckpointJournal.fingerprint("f", "m", 1, TINY, signatures)
        assert base != CheckpointJournal.fingerprint(
            "f", "m", 0, TINY, [("s", 1.0, "params-a"), ("s", 2.0, "params-c")]
        )

    def test_journal_roundtrip_preserves_floats_exactly(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal(path)
        journal.begin("fp", {})
        mean = 0.12345678901234567
        journal.record_point(0, "s", 1.0, mean, 1e-17, attempt=0, seed_used=3)
        journal.close()
        state = CheckpointJournal(path).load("fp")
        assert state.outcomes[("s", 1.0)] == ("s", 1.0, mean, 1e-17)

    def test_load_missing_journal_is_empty(self, tmp_path):
        state = CheckpointJournal(str(tmp_path / "absent.jsonl")).load("fp")
        assert state.outcomes == {}

    def test_append_requires_begin(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "j.jsonl"))
        with pytest.raises(CheckpointError):
            journal.record_point(0, "s", 1.0, 0.5, 0.0, attempt=0, seed_used=0)

    def test_journal_records_are_json_lines(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal(path)
        journal.begin("fp", {"figure_id": "f"})
        journal.record_point(0, "s", 1.0, 0.5, 0.1, attempt=1, seed_used=99)
        journal.close()
        with open(path) as handle:
            header, point = [json.loads(line) for line in handle]
        assert header["kind"] == "header"
        assert header["figure_id"] == "f"
        assert point["kind"] == "point"
        assert point["attempt"] == 1
        assert point["seed_used"] == 99


class TestPoolSupervision:
    def test_pool_crash_retry_matches_serial(self):
        points = make_points(3)
        reference = sweep(points)
        plan = FaultPlan().crash(1, attempts=(0,))
        figure = sweep(
            points,
            processes=2,
            resilience=ResilienceOptions(retry=FAST_RETRY, fault_plan=plan),
        )
        assert not figure.failures
        # Every x is present; the untouched points are bit-identical to
        # the serial reference. The retried point ran with a fresh
        # derived seed, so only its presence (not its value) is pinned.
        assert [x for x, _, _ in figure.series["s"]] == [1.0, 2.0, 3.0]
        assert figure.series["s"][0] == reference.series["s"][0]
        assert figure.series["s"][2] == reference.series["s"][2]

    def test_serial_timeout_records_note(self):
        figure = sweep(
            make_points(1),
            resilience=ResilienceOptions(point_timeout=5.0),
        )
        assert any("point_timeout" in note for note in figure.notes)


class FakeClock:
    """A monotonic clock whose ``sleep`` advances it instantly."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += max(0.0, seconds)


class ScriptedAsyncResult:
    """An AsyncResult double: ready immediately, or hung forever."""

    def __init__(self, value=None, hang=False, clock=None):
        self.value = value
        self.hang = hang
        self.clock = clock

    def wait(self, timeout=None):
        if self.hang and timeout:
            self.clock.sleep(timeout)

    def ready(self):
        return not self.hang

    def get(self):
        return self.value


class StubPool:
    """A pool double running tasks synchronously in-process, except
    for ``(index, attempt)`` pairs scripted to hang forever."""

    def __init__(self, clock, hangs=()):
        self.clock = clock
        self.hangs = set(hangs)
        self.terminated = False
        self.closed = False

    def apply_async(self, func, args):
        task = args[0]
        if (task.index, task.attempt) in self.hangs:
            return ScriptedAsyncResult(hang=True, clock=self.clock)
        return ScriptedAsyncResult(value=func(*args))

    def close(self):
        self.closed = True

    def terminate(self):
        self.terminated = True

    def join(self):
        pass


class TestDeterministicSupervision:
    """Hang detection and retry backoff on a fake clock: no real
    sleeps, no real pools, no timing margins to go flaky under load.

    The real-pool integration path stays covered by
    ``test_pool_crash_retry_matches_serial`` above.
    """

    @staticmethod
    def ok_task(task, fault_plan=None):
        from repro.exec import TaskResult

        return TaskResult(
            status="ok", index=task.index, series=task.series, x=task.x,
            attempt=task.attempt, seed_used=task.seed, mean=0.5,
            half_width=0.0,
        )

    @staticmethod
    def make_tasks(count):
        from repro.backends import EvaluationPlan
        from repro.exec import EvaluationTask

        base = ModelParameters(n_processors=8192)
        plan = EvaluationPlan(simulation=TINY)
        return [
            EvaluationTask(
                index=i, series="s", x=float(i + 1), params=base,
                plan=plan, backend="san-sim", base_seed=7,
            )
            for i in range(count)
        ]

    def pool(self, clock, pool_factory, run_task=None):
        """A two-process pool executor with a 5 s point timeout."""
        from repro.exec import make_executor

        return make_executor(
            "pool", processes=2, point_timeout=5.0, clock=clock,
            pool_factory=pool_factory,
            run_task=run_task or self.ok_task,
        )

    def drain_pool(self, count, hangs):
        """Drain ``count`` tasks through :meth:`pool`, every pool
        hanging the ``(index, attempt)`` pairs in ``hangs``; returns
        the executor, its results, the indices the workers ran, the
        pools started and the clock."""
        clock = FakeClock()
        runs, pools = [], []

        def counting_task(task, fault_plan=None):
            runs.append(task.index)
            return self.ok_task(task)

        def pool_factory():
            pools.append(StubPool(clock, hangs=hangs))
            return pools[-1]

        executor = self.pool(clock, pool_factory, run_task=counting_task)
        for task in self.make_tasks(count):
            executor.submit(task)
        return executor, list(executor.drain()), runs, pools, clock

    def test_hung_worker_is_killed_and_retried(self):
        from repro.experiments.resilience import SweepSupervisor

        clock = FakeClock()
        pools = []

        def pool_factory():
            # The first pool hangs point 0's first attempt; replacement
            # pools are healthy.
            pool = StubPool(clock, hangs={(0, 0)} if not pools else set())
            pools.append(pool)
            return pool

        supervisor = SweepSupervisor(
            ResilienceOptions(retry=FAST_RETRY, point_timeout=5.0),
            self.pool(clock, pool_factory),
            clock=clock,
            sleep=clock.sleep,
        )
        result = supervisor.run(self.make_tasks(2))
        assert not result.failures
        assert set(result.outcomes) == {0, 1}
        assert result.attempts[0] == 2  # killed once, then succeeded
        assert result.attempts[1] == 1
        assert len(pools) == 2  # the hung pool was replaced
        assert pools[0].terminated
        assert result.execution["executor"] == "pool"
        assert result.execution["timeouts"] == 1
        assert result.execution["pools_started"] == 2
        # The supervisor waited out one point timeout plus the backoff,
        # nothing near the "hang" itself (which never returns).
        assert clock.now <= 5.0 + FAST_RETRY.delay_for(1) + 1.0

    def test_hung_point_exhausts_retries_into_failure_report(self):
        from repro.experiments.resilience import SweepSupervisor

        clock = FakeClock()

        def pool_factory():
            # Every pool hangs every attempt of point 0.
            return StubPool(clock, hangs={(0, a) for a in range(10)})

        supervisor = SweepSupervisor(
            ResilienceOptions(
                retry=RetryPolicy(max_retries=1, backoff_base=0.01),
                point_timeout=5.0,
            ),
            self.pool(clock, pool_factory),
            clock=clock,
            sleep=clock.sleep,
        )
        result = supervisor.run(self.make_tasks(1))
        assert len(result.failures) == 1
        assert result.failures[0].error_type == "PointTimeout"
        assert result.failures[0].attempts == 2

    def test_kill_times_out_every_hung_task_at_once(self):
        # Both tasks of one batch hang: each is past its deadline when
        # the head is, so one kill at t=5 reports both.
        executor, results, runs, pools, clock = self.drain_pool(
            2, hangs={(0, 0), (1, 0)}
        )
        assert [(r.index, r.failure["error_type"]) for r in results] == [
            (0, "PointTimeout"), (1, "PointTimeout"),
        ]
        assert clock.now == 5.0
        assert len(pools) == 1 and pools[0].terminated
        assert executor.stats()["timeouts"] == 2
        assert executor.pending == 0

    def test_kill_keeps_a_result_that_is_ready(self):
        executor, results, runs, pools, _ = self.drain_pool(
            2, hangs={(0, 0)}
        )
        assert [(r.index, r.ok) for r in results] == [(0, False), (1, True)]
        assert runs == [1]  # finished before the kill, not run again
        assert len(pools) == 1
        assert executor.stats()["tasks_executed"] == 1

    def test_kill_requeues_only_unfinished_later_tasks(self):
        # Four tasks on two processes, the first batch hung: the kill
        # at t=5 times out both, and tasks 2 and 3 each run once in the
        # second pool.
        executor, results, runs, pools, clock = self.drain_pool(
            4, hangs={(0, 0), (1, 0)}
        )
        assert [(r.index, r.ok) for r in results] == [
            (0, False), (1, False), (2, True), (3, True),
        ]
        assert runs == [2, 3]
        assert clock.now == 5.0
        assert len(pools) == 2
        assert executor.stats()["timeouts"] == 2

    def test_serial_backoff_follows_the_policy_exactly(self):
        from repro.exec import TaskResult, make_executor
        from repro.experiments.resilience import SweepSupervisor

        clock = FakeClock()
        attempts_seen = []

        def flaky_task(task, fault_plan=None):
            attempts_seen.append(task.attempt)
            if task.attempt < 2:
                return TaskResult(
                    status="error", index=task.index, series=task.series,
                    x=task.x, attempt=task.attempt, seed_used=task.seed,
                    failure={"error_type": "Boom", "error_message": "x"},
                )
            return self.ok_task(task)

        policy = RetryPolicy(
            max_retries=3, backoff_base=10.0, backoff_max=60.0,
        )
        supervisor = SweepSupervisor(
            ResilienceOptions(retry=policy),
            make_executor("serial", run_task=flaky_task),
            clock=clock,
            sleep=clock.sleep,
        )
        result = supervisor.run(self.make_tasks(1))
        assert not result.failures
        assert attempts_seen == [0, 1, 2]
        # Two backoffs were slept, both at their exact policy values.
        assert clock.sleeps == [policy.delay_for(1), policy.delay_for(2)]
        assert clock.now == pytest.approx(10.0 + 20.0)


class TestPoolShutdownErrors:
    """Pool-cleanup failures are no longer swallowed silently."""

    class BrokenPool:
        def close(self):
            raise OSError("close failed")

        def terminate(self):
            raise OSError("terminate failed")

        def join(self):
            pass

    class GoodPool:
        def close(self):
            pass

        def terminate(self):
            pass

        def join(self):
            pass

    def test_reraises_when_no_prior_error(self):
        from repro.exec.pool import shutdown_pool

        notes = []
        with pytest.raises(OSError, match="close failed"):
            shutdown_pool(self.BrokenPool(), notes=notes)
        assert notes and "close failed" in notes[0]

    def test_suppresses_but_records_with_prior_error_in_flight(self):
        from repro.exec.pool import shutdown_pool

        notes = []
        with pytest.raises(ValueError, match="primary"):
            try:
                raise ValueError("primary")
            except ValueError:
                # Cleanup inside an except block must not replace the
                # primary error -- but it must still leave a note.
                shutdown_pool(self.BrokenPool(), notes=notes)
                raise
        assert notes and "close failed" in notes[0]

    def test_counts_failures_in_metrics(self):
        from repro.exec.pool import shutdown_pool
        from repro.obs.metrics import MetricsRegistry, set_registry

        previous = set_registry(MetricsRegistry())
        try:
            with pytest.raises(OSError):
                shutdown_pool(self.BrokenPool(), terminate=True)
            from repro.obs.metrics import registry

            assert (
                registry().snapshot()["counters"]["sweep.pool_shutdown_errors"]
                == 1
            )
        finally:
            set_registry(previous)

    def test_clean_shutdown_is_silent(self):
        from repro.exec.pool import shutdown_pool

        notes = []
        shutdown_pool(self.GoodPool(), notes=notes)
        assert notes == []


class TestSweepManifest:
    """run_sweep attaches a manifest describing point provenance."""

    def test_cold_then_warm_cache(self, tmp_path):
        points = make_points(2)
        options = ResilienceOptions(cache_dir=str(tmp_path))
        cold = sweep(points, resilience=options)
        assert cold.manifest is not None
        assert cold.manifest.points_total == 2
        assert cold.manifest.new_evaluations == 2
        assert cold.manifest.points_from_cache == 0

        warm = sweep(points, resilience=options)
        assert warm.manifest.new_evaluations == 0
        assert warm.manifest.points_from_cache == 2

    def test_single_replication_marks_unvalidated(self):
        figure = sweep(make_points(1))
        assert figure.unvalidated_intervals is True
        assert any("UNVALIDATED" in note.upper() for note in figure.notes)

    def test_manifest_records_wall_clock_and_metrics(self):
        figure = sweep(make_points(1))
        manifest = figure.manifest
        assert manifest.wall_clock_seconds is not None
        assert manifest.wall_clock_seconds >= 0.0
        assert manifest.metrics["counters"]["sweep.runs"] >= 1


def failing_result(task, error_type="RuntimeError", message="transient"):
    from repro.exec import TaskResult

    return TaskResult(
        status="error", index=task.index, series=task.series, x=task.x,
        attempt=task.attempt, seed_used=task.seed,
        failure={"error_type": error_type, "error_message": message},
    )


class TestSupervisor:
    """The one retry loop: retries on derived seeds, then the next
    fallback backend from attempt 0, with every step logged."""

    make_tasks = staticmethod(TestDeterministicSupervision.make_tasks)
    ok_task = staticmethod(TestDeterministicSupervision.ok_task)

    def supervise(self, run_task, count=1, **options):
        from repro.exec import make_executor
        from repro.experiments.resilience import SweepSupervisor

        options.setdefault("retry", RetryPolicy(max_retries=2, backoff_base=0.0))
        clock = FakeClock()
        supervisor = SweepSupervisor(
            ResilienceOptions(**options),
            make_executor("serial", run_task=run_task),
            clock=clock, sleep=clock.sleep,
        )
        return supervisor.run(self.make_tasks(count))

    def test_retry_runs_on_a_derived_seed(self):
        seeds = []

        def flaky(task, fault_plan=None):
            seeds.append(task.seed)
            return failing_result(task) if task.attempt == 0 else self.ok_task(task)

        result = self.supervise(flaky)
        assert not result.failures
        assert seeds == [7, derive_attempt_seed(7, 1)]
        assert result.attempts[0] == 2
        assert [e["kind"] for e in result.events] == ["failure", "retry"]
        assert result.events[1]["seed"] == derive_attempt_seed(7, 1)

    def test_exhausted_retries_fall_back_at_attempt_zero(self):
        seen = []

        def primary_broken(task, fault_plan=None):
            seen.append((task.backend, task.attempt, task.seed, task.cache_dir))
            if task.backend == "san-sim":
                return failing_result(task)
            return self.ok_task(task)

        result = self.supervise(
            primary_broken, retry=RetryPolicy(max_retries=1, backoff_base=0.0),
            degrade_to=("san-sim-full",),
        )
        assert not result.failures
        assert seen == [
            ("san-sim", 0, 7, None),
            ("san-sim", 1, derive_attempt_seed(7, 1), None),
            ("san-sim-full", 0, 7, None),  # the base seed again
        ]
        assert result.attempts[0] == 3
        assert [e["kind"] for e in result.events] == [
            "failure", "retry", "failure", "degraded",
        ]
        section = result.resilience_section()
        assert section["summary"]["degraded"] == ["san-sim -> san-sim-full"]

    def test_fallback_task_is_never_cached(self):
        from dataclasses import replace

        from repro.exec import make_executor
        from repro.experiments.resilience import SweepSupervisor

        cache_dirs = {}

        def primary_broken(task, fault_plan=None):
            cache_dirs[task.backend] = task.cache_dir
            if task.backend == "san-sim":
                return failing_result(task)
            return self.ok_task(task)

        tasks = [replace(t, cache_dir="cache") for t in self.make_tasks(1)]
        SweepSupervisor(
            ResilienceOptions(
                retry=RetryPolicy(max_retries=0), degrade_to=("analytical",)
            ),
            make_executor("serial", run_task=primary_broken),
        ).run(tasks)
        assert cache_dirs == {"san-sim": "cache", "analytical": None}

    def test_unsupported_error_skips_remaining_retries(self):
        seen = []

        def unsupported(task, fault_plan=None):
            seen.append((task.backend, task.attempt))
            if task.backend == "san-sim":
                return failing_result(task, "UnsupportedParametersError")
            return self.ok_task(task)

        result = self.supervise(unsupported, degrade_to=("analytical",))
        assert not result.failures
        # One primary attempt, no retries (the error is permanent for
        # this request), then the fallback's own successful attempt.
        assert seen == [("san-sim", 0), ("analytical", 0)]

    def test_failure_report_counts_every_evaluation(self):
        def broken(task, fault_plan=None):
            return failing_result(task, "Boom", "always")

        result = self.supervise(
            broken, retry=RetryPolicy(max_retries=1, backoff_base=0.0),
            degrade_to=("san-sim-full", "analytical"),
        )
        [report] = result.failures
        assert report.attempts == 6 == result.attempts[0]
        assert report.error_type == "Boom"
        assert "degraded" not in result.resilience_section()["summary"]

    def test_permanent_error_without_fallback_is_one_attempt(self):
        def unsupported(task, fault_plan=None):
            return failing_result(task, "UnsupportedMetricError")

        result = self.supervise(unsupported)
        assert result.failures[0].attempts == 1
        assert [e["kind"] for e in result.events] == ["failure"]

    def test_timeouts_are_logged_as_timeout_events(self):
        def budget_trip(task, fault_plan=None):
            if task.attempt == 0:
                return failing_result(task, "WallClockExceededError")
            return self.ok_task(task)

        result = self.supervise(budget_trip)
        assert [e["kind"] for e in result.events] == ["timeout", "retry"]

    def test_nothing_happened_means_no_section(self):
        result = self.supervise(self.ok_task, count=2)
        assert result.events == []
        assert result.resilience_section() is None


def crash_always(backend_id):
    from repro.experiments.faultinject import BackendFaultPlan

    return BackendFaultPlan(
        backend_id=backend_id, crash_fraction=1.0, crash_attempts=None
    )


NO_BACKOFF = RetryPolicy(max_retries=1, backoff_base=0.0)


class TestSweepFallback:
    def test_degrades_to_capable_fallback(self):
        points = make_points(2)
        reference = sweep(points, backend="analytical")
        figure = sweep(
            points,
            resilience=ResilienceOptions(
                retry=NO_BACKOFF, fault_plan=crash_always("san-sim"),
                degrade_to=("analytical",),
            ),
        )
        assert not figure.failures
        assert figure.series == reference.series
        assert "DEGRADED: san-sim -> analytical" in figure.notes
        section = figure.manifest.resilience
        assert section["summary"]["by_kind"] == {
            "degraded": 2, "failure": 4, "retry": 2,
        }
        assert figure.manifest.retries == 4
        assert figure.manifest.execution["attempts"] == {"0": 3, "1": 3}

    def test_unknown_fallbacks_are_skipped(self):
        figure = sweep(
            make_points(1),
            resilience=ResilienceOptions(
                retry=NO_BACKOFF, fault_plan=crash_always("san-sim"),
                degrade_to=("no-such", "analytical"),
            ),
        )
        assert not figure.failures
        assert any(
            note.startswith("fallback backend 'no-such' skipped")
            for note in figure.notes
        )
        assert "DEGRADED: san-sim -> analytical" in figure.notes

    def test_incapable_fallback_is_skipped(self):
        # Exact backends veto non-flat strategies in supports().
        plan = SimulationPlan(
            warmup=1 * HOUR, observation=10 * HOUR, replications=1,
            strategy="incremental",
        )
        figure = run_sweep(
            "fig-test", "t", "x", "useful_work_fraction", make_points(1),
            plan, seed=7,
            resilience=ResilienceOptions(degrade_to=("analytical",)),
        )
        assert any(
            note.startswith("fallback backend 'analytical' skipped")
            for note in figure.notes
        )
        assert figure.manifest.resilience is None

    def test_chain_continues_after_the_primary(self):
        figure = sweep(
            make_points(1),
            resilience=ResilienceOptions(
                retry=NO_BACKOFF, fault_plan=crash_always(None),
                degrade_to=("analytical", "san-sim", "san-sim-full"),
            ),
        )
        # Only san-sim-full follows the primary; every backend crashes.
        assert figure.failures[0].attempts == 4
        assert {e["backend"] for e in figure.manifest.resilience["events"]} == {
            "san-sim", "san-sim-full",
        }

    def test_no_capable_fallback_reports_failure(self):
        figure = sweep(
            make_points(1),
            resilience=ResilienceOptions(
                retry=NO_BACKOFF, fault_plan=crash_always("san-sim"),
                degrade_to=("no-such",),
            ),
        )
        [report] = figure.failures
        assert report.error_type == "InjectedBackendFault"
        assert report.attempts == 2

    def test_journal_keeps_the_primary_points_of_a_mixed_sweep(self, tmp_path):
        from repro.experiments.faultinject import (
            BackendFaultPlan,
            evaluation_key,
        )
        from repro.experiments.runner import sweep_eval_plan

        points = [
            SweepPoint("s", float(n), ModelParameters(n_processors=n))
            for n in (8192, 16384, 32768, 65536)
        ]
        plan = BackendFaultPlan(
            backend_id="san-sim", crash_fraction=0.5, crash_attempts=None
        )
        eval_plan = sweep_eval_plan("useful_work_fraction", TINY, 7)
        afflicted = {
            point.x for point in points
            if plan._afflicted(
                "crash", 0.5, evaluation_key("san-sim", point.params, eval_plan)
            )
        }
        assert 0 < len(afflicted) < len(points)
        sweep(
            points,
            resilience=ResilienceOptions(
                checkpoint_dir=str(tmp_path), retry=NO_BACKOFF,
                fault_plan=plan, degrade_to=("analytical",),
            ),
        )
        with open(tmp_path / "fig-test.journal.jsonl") as handle:
            records = [json.loads(line) for line in handle]
        journaled = {r["x"] for r in records if r["kind"] == "point"}
        assert journaled == {point.x for point in points} - afflicted

    def test_fallback_values_are_never_cached(self, tmp_path):
        points = make_points(2)
        cache = str(tmp_path / "cache")
        sweep(
            points,
            resilience=ResilienceOptions(
                retry=NO_BACKOFF, fault_plan=crash_always("san-sim"),
                degrade_to=("analytical",), cache_dir=cache,
            ),
        )
        rerun = sweep(points, resilience=ResilienceOptions(cache_dir=cache))
        assert rerun.manifest.points_from_cache == 0
        assert rerun.manifest.new_evaluations == 2

    def test_point_timeout_reaches_the_kernel_budget(self, monkeypatch):
        from repro.backends.analytical import AnalyticalBackend

        budgets = []
        evaluate = AnalyticalBackend.evaluate

        def spy(self, params, plan):
            budgets.append(plan.simulation.wall_clock_budget)
            return evaluate(self, params, plan)

        monkeypatch.setattr(AnalyticalBackend, "evaluate", spy)
        sweep(
            make_points(2), backend="analytical",
            resilience=ResilienceOptions(point_timeout=12.5),
        )
        assert budgets == [12.5, 12.5]

    def test_fault_free_sweep_has_no_resilience_section(self):
        plain = sweep(make_points(2))
        figure = sweep(
            make_points(2),
            resilience=ResilienceOptions(degrade_to=("san-sim-full",)),
        )
        assert figure.manifest.resilience is None
        assert figure.notes == plain.notes
        assert figure.series == plain.series

    def test_repeated_fallback_is_tried_once(self):
        figure = sweep(
            make_points(1),
            resilience=ResilienceOptions(
                retry=NO_BACKOFF, fault_plan=crash_always(None),
                degrade_to=("analytical", "analytical"),
            ),
        )
        assert figure.failures[0].attempts == 4

    def test_pool_falls_back_too(self):
        points = make_points(2)
        reference = sweep(points, backend="analytical")
        figure = sweep(
            points, processes=2,
            resilience=ResilienceOptions(
                retry=NO_BACKOFF, fault_plan=crash_always("san-sim"),
                degrade_to=("analytical",),
            ),
        )
        assert figure.series == reference.series
        assert figure.manifest.resilience["summary"]["degraded"] == [
            "san-sim -> analytical"
        ] * 2

    def test_queue_never_serves_a_fallback_value_as_primary(self, tmp_path):
        points = make_points(2)
        queue = str(tmp_path / "q")
        sweep(
            points, executor="queue", queue_dir=queue,
            resilience=ResilienceOptions(
                retry=NO_BACKOFF, fault_plan=crash_always("san-sim"),
                degrade_to=("analytical",),
            ),
        )
        again = sweep(points, executor="queue", queue_dir=queue)
        assert again.manifest.execution["tasks_executed"] == 2
        assert again.series == sweep(points).series


class TestRegressions:
    def test_failing_point_does_not_fail_a_later_sweep(self):
        # A crash-always point used to open a process-wide circuit
        # breaker that then failed every point of the next sweep.
        failed = sweep(
            make_points(1), backend="analytical",
            resilience=ResilienceOptions(
                retry=RetryPolicy(max_retries=5, backoff_base=0.0),
                fault_plan=crash_always("analytical"),
            ),
        )
        assert len(failed.failures) == 1
        later = sweep(make_points(3), backend="analytical")
        assert not later.failures
        assert len(later.series["s"]) == 3

    def test_attempts_and_retries_count_every_evaluation(self):
        figure = sweep(
            make_points(1),
            resilience=ResilienceOptions(
                retry=RetryPolicy(max_retries=2, backoff_base=0.0),
                fault_plan=crash_always(None),
                degrade_to=("analytical",),
            ),
        )
        ran = figure.manifest.execution["tasks_executed"]
        assert ran == 6
        assert figure.failures[0].attempts == ran
        assert figure.manifest.retries == ran - 1

    def test_degraded_value_is_never_journaled(self, tmp_path):
        from repro.experiments import run_figure

        def fig4a(**resilience):
            return run_figure(
                "fig4a", preset="quick", max_points=2,
                resilience=ResilienceOptions(
                    checkpoint_dir=str(tmp_path), **resilience
                ),
            )

        degraded = fig4a(
            retry=NO_BACKOFF, fault_plan=crash_always("san-sim"),
            degrade_to=("analytical",),
        )
        assert any(note.startswith("DEGRADED") for note in degraded.notes)
        resumed = fig4a()
        assert resumed.manifest.points_from_journal == 0
        assert resumed.manifest.new_evaluations == 2
        clean = run_figure("fig4a", preset="quick", max_points=2)
        assert resumed.series == clean.series != degraded.series

    def test_fault_plan_with_an_executor_instance_is_refused(self):
        # The instance keeps its own (empty) plan, so the sweep's plan
        # used to reach only the abort hook: the crash never happened
        # and the run reported no failed point.
        from repro.exec import make_executor
        from repro.experiments import run_figure

        with pytest.raises(ValueError, match="fault_plan"):
            run_figure(
                "fig4a", preset="quick", max_points=2,
                executor=make_executor("serial"),
                resilience=ResilienceOptions(
                    retry=RetryPolicy(max_retries=0),
                    fault_plan=FaultPlan().crash(0, attempts=(0, 1, 2, 3)),
                ),
            )

    def test_wall_clock_budget_does_not_fork_the_cache(self, tmp_path):
        points = make_points(2)
        cache = str(tmp_path / "cache")
        cold = sweep(points, resilience=ResilienceOptions(cache_dir=cache))
        warm = sweep(
            points,
            resilience=ResilienceOptions(
                cache_dir=cache, point_timeout=600.0
            ),
        )
        assert warm.manifest.new_evaluations == 0
        assert warm.series == cold.series


class TestPoolEvents:
    def test_pool_run_records_resilience_events(self):
        plan = FaultPlan().crash(1, attempts=(0,))
        figure = sweep(
            make_points(2), processes=2,
            resilience=ResilienceOptions(retry=FAST_RETRY, fault_plan=plan),
        )
        assert not figure.failures
        section = figure.manifest.resilience
        assert section["summary"]["by_kind"] == {"failure": 1, "retry": 1}
        assert figure.manifest.execution["executor"] == "pool"
