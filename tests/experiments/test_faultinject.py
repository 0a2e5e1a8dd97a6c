"""Tests for the deterministic fault-injection harness."""

import pickle

import pytest

from repro.experiments.faultinject import (
    BackendFaultPlan,
    FaultPlan,
    InjectedBackendFault,
    InjectedCrash,
    SweepAborted,
    _unit_interval,
    corrupt_journal_line,
    corrupt_journal_tail,
    evaluation_key,
    truncate_journal,
)


class TestFaultPlan:
    def test_crash_fires_only_on_configured_attempts(self):
        plan = FaultPlan().crash(2, attempts=(0, 1))
        with pytest.raises(InjectedCrash, match="point 2, attempt 0"):
            plan.before_point(2, 0)
        with pytest.raises(InjectedCrash):
            plan.before_point(2, 1)
        plan.before_point(2, 2)  # retries past the plan succeed
        plan.before_point(0, 0)  # other points are untouched

    def test_hang_sleeps_configured_duration(self):
        plan = FaultPlan().hang(1, attempts=(0,), seconds=0.05)
        import time

        started = time.monotonic()
        plan.before_point(1, 0)
        assert time.monotonic() - started >= 0.05
        started = time.monotonic()
        plan.before_point(1, 1)  # attempt not in plan: no sleep
        assert time.monotonic() - started < 0.05

    def test_abort_after_points(self):
        plan = FaultPlan().abort_after_points(2)
        plan.after_success(1)
        with pytest.raises(SweepAborted, match="after 2 completed"):
            plan.after_success(2)

    def test_no_abort_configured_is_silent(self):
        FaultPlan().after_success(100)

    def test_chaining_builds_one_plan(self):
        plan = FaultPlan().crash(0).hang(1, seconds=9.0).abort_after_points(5)
        assert plan.crashes == {0: (0,)}
        assert plan.hangs == {1: (0,)}
        assert plan.hang_seconds == 9.0
        assert plan.abort_after == 5

    def test_plan_is_picklable(self):
        plan = FaultPlan().crash(3, attempts=(0, 1)).hang(4, seconds=1.5)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.crashes == plan.crashes
        assert clone.hangs == plan.hangs
        assert clone.hang_seconds == plan.hang_seconds
        with pytest.raises(InjectedCrash):
            clone.before_point(3, 1)


def find_key(plan, kind, fraction, afflicted=True, limit=1000):
    """Search for an evaluation key the plan does / does not afflict."""
    for i in range(limit):
        key = f"key-{i}"
        if plan._afflicted(kind, fraction, key) == afflicted:
            return key
    raise AssertionError(f"no key with afflicted={afflicted} in {limit} tries")


class TestBackendFaultPlan:
    def test_affliction_is_deterministic_per_key(self):
        plan = BackendFaultPlan(crash_fraction=0.5)
        hot = find_key(plan, "crash", 0.5)
        cold = find_key(plan, "crash", 0.5, afflicted=False)
        for _ in range(3):
            with pytest.raises(InjectedBackendFault):
                plan.before_evaluate("san-sim", hot, attempt=0)
            plan.before_evaluate("san-sim", cold, attempt=0)

    def test_salt_redraws_the_pattern(self):
        # At fraction 0.5 some key must flip its affliction when the
        # salt changes; the hash stream is independent per salt.
        salted = BackendFaultPlan(crash_fraction=0.5, salt="other")
        flipped = any(
            BackendFaultPlan(crash_fraction=0.5)._afflicted("crash", 0.5, key)
            != salted._afflicted("crash", 0.5, key)
            for key in (f"key-{i}" for i in range(64))
        )
        assert flipped

    def test_attempts_none_afflicts_every_attempt(self):
        plan = BackendFaultPlan(crash_fraction=1.0, crash_attempts=None)
        for attempt in (0, 1, 5):
            with pytest.raises(InjectedBackendFault):
                plan.before_evaluate("san-sim", "k", attempt)

    def test_attempt_list_limits_the_fault(self):
        plan = BackendFaultPlan(crash_fraction=1.0, crash_attempts=(0,))
        with pytest.raises(InjectedBackendFault):
            plan.before_evaluate("san-sim", "k", 0)
        plan.before_evaluate("san-sim", "k", 1)  # retry escapes the fault

    def test_backend_id_pinning(self):
        plan = BackendFaultPlan(backend_id="san-sim", crash_fraction=1.0)
        with pytest.raises(InjectedBackendFault):
            plan.before_evaluate("san-sim", "k", 0)
        plan.before_evaluate("san-sim-full", "k", 0)  # fallback untouched

    def test_corruption_multiplies_means_and_notes(self):
        from repro.backends import EvaluationResult, MetricValue

        plan = BackendFaultPlan(corrupt_fraction=1.0, corrupt_factor=10.0)
        result = EvaluationResult(
            backend="stub",
            metrics={"useful_work_fraction": MetricValue(0.5, 0.01)},
        )
        out = plan.after_evaluate("stub", "k", 0, result)
        assert out.metric("useful_work_fraction").mean == pytest.approx(5.0)
        assert out.metric("useful_work_fraction").half_width == pytest.approx(
            0.01
        )
        assert any("corruption" in note for note in out.notes)

    def test_fraction_validation(self):
        with pytest.raises(ValueError, match="crash_fraction"):
            BackendFaultPlan(crash_fraction=1.5)
        with pytest.raises(ValueError, match="hang_fraction"):
            BackendFaultPlan(hang_fraction=-0.1)

    @pytest.mark.parametrize("seconds", [0.0, -5.0])
    def test_hang_seconds_must_be_positive(self, seconds):
        # A negative sleep raised inside the hook instead of hanging.
        with pytest.raises(ValueError, match="hang_seconds"):
            BackendFaultPlan(hang_seconds=seconds)

    def test_plan_is_picklable_and_hooks_survive(self):
        plan = BackendFaultPlan(
            backend_id="san-sim", crash_fraction=1.0, crash_attempts=None,
            salt="s",
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        with pytest.raises(InjectedBackendFault):
            clone.before_evaluate("san-sim", "k", 3)

    def test_unit_interval_range_and_stability(self):
        values = [_unit_interval(f"t{i}") for i in range(100)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert _unit_interval("t0") == values[0]


def make_task(backend="san-sim", attempt=0, seed=7):
    from repro.backends import EvaluationPlan
    from repro.core import HOUR, ModelParameters, SimulationPlan
    from repro.exec import EvaluationTask

    plan = EvaluationPlan(
        simulation=SimulationPlan(warmup=2 * HOUR, observation=20 * HOUR),
        seed=seed,
    )
    return EvaluationTask(
        index=2, series="s", x=1.0, params=ModelParameters(n_processors=8192),
        plan=plan, backend=backend, base_seed=seed, attempt=attempt,
    )


class TestEvaluationKey:
    def test_seed_is_excluded(self):
        task = make_task()
        assert evaluation_key("b", task.params, task.plan) == evaluation_key(
            "b", task.params, task.plan.with_seed(99)
        )

    def test_params_and_backend_matter(self):
        task = make_task()
        assert evaluation_key("a", task.params, task.plan) != evaluation_key(
            "b", task.params, task.plan
        )
        other = task.params.with_overrides(n_processors=16384)
        assert evaluation_key("a", task.params, task.plan) != evaluation_key(
            "a", other, task.plan
        )


class TestTaskHooks:
    """Both plan types implement the ``before_task`` / ``after_task``
    pair :func:`~repro.exec.task.execute_task` calls."""

    def test_fault_plan_keys_on_index_and_attempt(self):
        plan = FaultPlan().crash(2, attempts=(0,))
        with pytest.raises(InjectedCrash, match="point 2, attempt 0"):
            plan.before_task(make_task())
        plan.before_task(make_task(attempt=1))
        assert plan.after_task(make_task(), "result") == "result"

    def test_backend_fault_plan_keys_on_backend_and_request(self):
        plan = BackendFaultPlan(
            backend_id="san-sim", crash_fraction=1.0, crash_attempts=None
        )
        with pytest.raises(InjectedBackendFault):
            plan.before_task(make_task(attempt=3, seed=11))
        plan.before_task(make_task(backend="san-sim-full"))
        plan.after_success(1)  # backend faults never abort a sweep

    def test_backend_fault_plan_corrupts_through_after_task(self):
        from repro.backends import EvaluationResult, MetricValue

        plan = BackendFaultPlan(
            backend_id="san-sim", corrupt_fraction=1.0, corrupt_factor=3.0
        )

        def result():
            return EvaluationResult(
                backend="san-sim",
                metrics={"useful_work_fraction": MetricValue(0.5, 0.01)},
            )

        out = plan.after_task(make_task(), result())
        assert out.metric("useful_work_fraction").mean == pytest.approx(1.5)
        retried = plan.after_task(make_task(attempt=1), result())
        assert retried.metric("useful_work_fraction").mean == 0.5


class TestCorruptionHelpers:
    def write_journal(self, tmp_path, lines=('{"kind": "header"}', '{"kind": "point"}')):
        path = tmp_path / "j.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        return str(path)

    def test_corrupt_tail_appends_torn_record(self, tmp_path):
        path = self.write_journal(tmp_path)
        corrupt_journal_tail(path)
        with open(path) as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 3
        assert lines[2].startswith('{"kind": "point", "series"')
        assert not lines[2].endswith("}")  # genuinely torn

    def test_corrupt_line_overwrites_in_place(self, tmp_path):
        path = self.write_journal(tmp_path)
        corrupt_journal_line(path, 1)
        with open(path) as handle:
            lines = handle.read().splitlines()
        assert lines[0] == '{"kind": "header"}'
        assert "garbage" in lines[1]

    def test_corrupt_line_bounds_checked(self, tmp_path):
        path = self.write_journal(tmp_path)
        with pytest.raises(IndexError, match="cannot corrupt line 5"):
            corrupt_journal_line(path, 5)

    def test_truncate_keeps_prefix(self, tmp_path):
        path = self.write_journal(
            tmp_path, lines=("a", "b", "c", "d")
        )
        truncate_journal(path, 2)
        with open(path) as handle:
            assert handle.read() == "a\nb\n"
