"""Tests for the serializable task / result envelope layer.

The contract under test: an :class:`~repro.exec.EvaluationTask` is a
picklable value object that round-trips through JSON under a versioned
schema, derives its attempt seed the same way the retry layer does,
and is content-addressed by exactly the digest the result cache files
its entries under. :func:`~repro.exec.execute_task` never raises, and
a wall-clock budget (how a point timeout reaches the kernel) must never
fork the cache key space.
"""

import pickle
from dataclasses import replace

import pytest

from repro.backends import (
    EvaluationPlan,
    EvaluationResult,
    MetricValue,
    ResultCache,
    get_backend,
)
from repro.core import HOUR, ModelParameters, SimulationPlan
from repro.exec import (
    TASK_SCHEMA_VERSION,
    EvaluationTask,
    TaskError,
    TaskResult,
    execute_task,
)
from repro.exec.task import derive_attempt_seed, tighten_budget
from repro.experiments.faultinject import BackendFaultPlan

TINY_SIM = SimulationPlan(warmup=2 * HOUR, observation=20 * HOUR, replications=2)
TINY = EvaluationPlan(simulation=TINY_SIM)


def make_task(**overrides):
    fields = dict(
        index=3,
        series="MTTF (yrs) = 1",
        x=8192,
        params=ModelParameters(n_processors=8192),
        plan=TINY,
        backend="analytical",
        base_seed=17,
        attempt=2,
        cache_dir=None,
    )
    fields.update(overrides)
    return EvaluationTask(**fields)


class TestEvaluationTask:
    def test_json_round_trip(self):
        task = make_task()
        payload = task.to_json_dict()
        assert payload["schema_version"] == TASK_SCHEMA_VERSION
        rebuilt = EvaluationTask.from_json_dict(payload)
        assert rebuilt.params == task.params
        assert rebuilt.plan == task.plan
        assert rebuilt.cache_key() == task.cache_key()

    def test_pickle_round_trip(self):
        task = make_task(cache_dir="/tmp/somewhere")
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task

    def test_foreign_schema_version_rejected(self):
        payload = make_task().to_json_dict()
        payload["schema_version"] = TASK_SCHEMA_VERSION + 1
        with pytest.raises(TaskError):
            EvaluationTask.from_json_dict(payload)

    def test_malformed_payload_rejected(self):
        payload = make_task().to_json_dict()
        del payload["params"]
        with pytest.raises(TaskError):
            EvaluationTask.from_json_dict(payload)

    def test_seed_derivation_matches_retry_layer(self):
        task = make_task(attempt=0)
        assert task.seed == task.base_seed
        retried = task.with_attempt(3)
        assert retried.seed == derive_attempt_seed(task.base_seed, 3)
        assert retried.seed != task.seed

    def test_cache_key_matches_result_cache(self, tmp_path):
        # The queue's "same work" and the cache's "same entry" must be
        # the same digest, or coalescing and caching drift apart.
        task = make_task(attempt=0)
        cache = ResultCache(str(tmp_path))
        backend = get_backend(task.backend)
        expected = cache.key(backend, task.params, task.seeded_plan())
        assert task.cache_key() == expected

    def test_budgeted_task_round_trips_with_its_cache_key(self):
        # A persisted queue task keeps its budget, and the budget does
        # not change which work it is.
        task = make_task()
        budgeted = replace(task, plan=tighten_budget(task.plan, 30.0))
        rebuilt = EvaluationTask.from_json_dict(budgeted.to_json_dict())
        assert rebuilt.plan.simulation.wall_clock_budget == 30.0
        assert rebuilt.cache_key() == task.cache_key()

    def test_task_queued_with_null_batch_size_keeps_its_key(self):
        # Task files written while the batched kernel existed carry its
        # batch_size field as null. Quick fig4a point 0 at seed 0, as
        # queued then, must still decode to the key it was filed under.
        from repro.backends import TOTAL_USEFUL_WORK
        from repro.experiments.config import plan_for
        from repro.experiments.figures import FIGURE_SPECS
        from repro.experiments.runner import sweep_eval_plan

        task = make_task(
            params=FIGURE_SPECS["fig4a"].points()[0].params,
            plan=sweep_eval_plan(TOTAL_USEFUL_WORK, plan_for("quick"), 0),
            backend="san-sim",
            base_seed=0,
            attempt=0,
        )
        payload = task.to_json_dict()
        assert "batch_size" not in payload["plan"]["simulation"]
        payload["plan"]["simulation"]["batch_size"] = None
        rebuilt = EvaluationTask.from_json_dict(payload)
        assert rebuilt.plan == task.plan
        assert rebuilt.cache_key() == task.cache_key()
        assert rebuilt.cache_key() == "4954dd9716c822166574f6b21f0af49d"

    def test_task_queued_with_a_priority_keeps_its_key(self):
        # Task files written while the queue had priorities carry a
        # priority field; it is not read, and the key is unchanged.
        from repro.backends import TOTAL_USEFUL_WORK
        from repro.experiments.config import plan_for
        from repro.experiments.figures import FIGURE_SPECS
        from repro.experiments.runner import sweep_eval_plan

        task = make_task(
            params=FIGURE_SPECS["fig4a"].points()[0].params,
            plan=sweep_eval_plan(TOTAL_USEFUL_WORK, plan_for("quick"), 0),
            backend="san-sim",
            base_seed=0,
            attempt=0,
        )
        payload = task.to_json_dict()
        assert "priority" not in payload
        payload["priority"] = 3
        rebuilt = EvaluationTask.from_json_dict(payload)
        assert rebuilt == task
        assert rebuilt.cache_key() == "4954dd9716c822166574f6b21f0af49d"

    def test_batched_task_is_rejected_naming_the_kernel(self):
        payload = make_task().to_json_dict()
        payload["plan"]["simulation"].update(kernel="batched", batch_size=8)
        with pytest.raises(TaskError, match="'batched'"):
            EvaluationTask.from_json_dict(payload)

    def test_cache_key_differs_per_attempt(self):
        # A retry runs under a derived seed, so it is distinct work.
        task = make_task(attempt=0)
        assert task.cache_key() != task.with_attempt(1).cache_key()


class TestTaskResult:
    def test_from_evaluation_carries_the_outcome(self):
        task = make_task(series="s", x=2.0, attempt=0)
        evaluation = EvaluationResult(
            backend="analytical",
            metrics={"useful_work_fraction": MetricValue(0.75, 0.01)},
        )
        result = TaskResult.from_evaluation(task, evaluation)
        assert result.ok
        assert result.outcome == ("s", 2.0, 0.75, 0.01)
        assert result.seed_used == task.seed
        assert result.result is evaluation
        assert not result.coalesced

    def test_error_result_has_no_outcome(self):
        failed = TaskResult(
            status="error", index=0, series="s", x=1.0, attempt=1,
            seed_used=9, failure={"error_type": "RuntimeError"},
        )
        assert not failed.ok
        with pytest.raises(TaskError):
            failed.outcome


class TestExecuteTask:
    def test_success_envelope(self):
        result = execute_task(make_task(attempt=0))
        assert result.ok
        assert result.seed_used == 17
        assert result.x == 8192
        assert 0 < result.mean <= 1
        assert result.result.backend == "analytical"

    def test_never_raises(self):
        bad = make_task(backend="no-such-backend")
        result = execute_task(bad)
        assert not result.ok
        assert result.failure["error_type"] == "UnknownBackendError"
        assert "no-such-backend" in result.failure["error_message"]

    def test_writes_through_to_cache(self, tmp_path):
        task = make_task(attempt=0, cache_dir=str(tmp_path))
        execute_task(task)
        cache = ResultCache(str(tmp_path))
        backend = get_backend(task.backend)
        assert cache.get(backend, task.params, task.seeded_plan()) is not None

    def test_deadline_does_not_pollute_cache_key(self, tmp_path):
        # A budget tightens the evaluation's wall clock but the entry
        # is still found under the budget-less plan: a later run
        # without any timeout has to hit it.
        task = make_task(attempt=0, cache_dir=str(tmp_path))
        execute_task(replace(task, plan=tighten_budget(task.plan, 3600.0)))
        cache = ResultCache(str(tmp_path))
        backend = get_backend(task.backend)
        assert cache.get(backend, task.params, task.seeded_plan()) is not None

    def test_cooperative_deadline_times_out_hung_point(self):
        # A microscopic budget on the real simulator must surface as
        # a structured WallClockExceededError failure, not a hang.
        slow = EvaluationPlan(
            simulation=SimulationPlan(
                warmup=2 * HOUR, observation=2000 * HOUR, replications=4
            )
        )
        task = make_task(
            plan=tighten_budget(slow, 1e-6), backend="san-sim", attempt=0
        )
        result = execute_task(task)
        assert not result.ok
        assert result.failure["error_type"] == "WallClockExceededError"

    def test_deadline_tightens_not_loosens(self):
        # An existing (smaller) plan budget wins over a looser timeout.
        budgeted = EvaluationPlan(
            simulation=SimulationPlan(
                warmup=2 * HOUR,
                observation=2000 * HOUR,
                replications=4,
                wall_clock_budget=1e-6,
            )
        )
        assert tighten_budget(budgeted, 3600.0) is budgeted
        assert tighten_budget(TINY, None) is TINY
        assert tighten_budget(TINY, 5.0).simulation.wall_clock_budget == 5.0
        task = make_task(
            plan=tighten_budget(budgeted, 3600.0), backend="san-sim", attempt=0
        )
        result = execute_task(task)
        assert not result.ok
        assert result.failure["error_type"] == "WallClockExceededError"

    def test_backend_fault_fires_before_evaluation(self):
        plan = BackendFaultPlan(
            backend_id="analytical", crash_fraction=1.0, crash_attempts=None
        )
        result = execute_task(make_task(attempt=0), plan)
        assert not result.ok
        assert result.failure["error_type"] == "InjectedBackendFault"

    def test_injected_corruption_flows_through(self):
        clean = execute_task(make_task(attempt=0))
        plan = BackendFaultPlan(corrupt_fraction=1.0, corrupt_factor=10.0)
        corrupted = execute_task(make_task(attempt=0), plan)
        # Only a downstream tolerance check can catch it.
        assert corrupted.ok
        assert corrupted.mean == pytest.approx(10.0 * clean.mean)
