"""Exec-layer conformance for strategy-stamped tasks.

The zoo rides on the existing serialization plumbing: the strategy
lives on :class:`SimulationPlan`, so it must survive the pickle and
JSON round-trips an :class:`EvaluationTask` makes on its way through a
pool or queue executor, and it must fork the content-address — a flat
task and a non-flat task answer different questions, so sharing a
cache entry would silently serve the wrong protocol's numbers.
"""

import pickle

import pytest

from repro.backends import (
    SCHEMA_VERSION,
    EvaluationPlan,
    EvaluationResult,
    SchemaMismatchError,
    get_backend,
)
from repro.core import HOUR, ModelParameters, SimulationPlan
from repro.exec import EvaluationTask, execute_task

STRATEGY = "incremental:compression_ratio=0.5,full_checkpoint_period=4"


def make_task(strategy="flat", **overrides):
    fields = dict(
        index=0,
        series="zoo",
        x=2048,
        params=ModelParameters(n_processors=2048, processors_per_node=8),
        plan=EvaluationPlan(
            simulation=SimulationPlan(
                warmup=1 * HOUR,
                observation=20 * HOUR,
                replications=2,
                strategy=strategy,
            )
        ),
        backend="san-sim",
        base_seed=11,
    )
    fields.update(overrides)
    return EvaluationTask(**fields)


class TestStrategyStampedTask:
    def test_json_round_trip_preserves_strategy(self):
        task = make_task(strategy=STRATEGY)
        rebuilt = EvaluationTask.from_json_dict(task.to_json_dict())
        assert rebuilt.plan.simulation.strategy == STRATEGY
        assert rebuilt == task
        assert rebuilt.cache_key() == task.cache_key()

    def test_pickle_round_trip_preserves_strategy(self):
        task = make_task(strategy=STRATEGY)
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task
        assert clone.plan.simulation.strategy == STRATEGY

    def test_flat_and_non_flat_tasks_have_distinct_cache_keys(self):
        flat = make_task(strategy="flat")
        zoo = make_task(strategy=STRATEGY)
        assert flat.cache_key() != zoo.cache_key()

    def test_distinct_parameterisations_have_distinct_cache_keys(self):
        a = make_task(strategy="incremental:compression_ratio=0.5")
        b = make_task(strategy="incremental:compression_ratio=0.25")
        assert a.cache_key() != b.cache_key()

    def test_equivalent_spellings_share_a_cache_key(self):
        # Canonicalisation at plan construction means spec spelling
        # never forks the cache key space.
        a = make_task(
            strategy="incremental:compression_ratio=0.50,"
            "full_checkpoint_period=4"
        )
        b = make_task(
            strategy="incremental:full_checkpoint_period=4,"
            "compression_ratio=.5"
        )
        assert a.cache_key() == b.cache_key()

    def test_execute_task_runs_a_strategy_stamped_task(self):
        outcome = execute_task(make_task(strategy=STRATEGY))
        assert outcome.ok, outcome.failure
        assert 0.0 < outcome.result.metric("useful_work_fraction").mean < 1.0

    def test_strategy_changes_the_answer_through_the_task_path(self):
        # Not just the key: the serialized task must actually run the
        # variant. At compression 0.5 / period 4 the write factor is
        # 0.625, so the dump overhead shrinks and useful work grows.
        flat = execute_task(make_task(strategy="flat"))
        zoo = execute_task(make_task(strategy=STRATEGY))
        assert flat.ok and zoo.ok
        flat_uwf = flat.result.metric("useful_work_fraction")
        zoo_uwf = zoo.result.metric("useful_work_fraction")
        assert flat_uwf.mean != zoo_uwf.mean


class TestForeignStrategySchema:
    def test_vnext_result_with_strategy_field_rejected(self):
        # A future archive that records the strategy in the *result*
        # envelope under a bumped schema must be refused loudly, never
        # misread as a flat-era result.
        backend = get_backend("analytical")
        result = backend.evaluate(
            ModelParameters(n_processors=1024), EvaluationPlan()
        )
        payload = result.to_json_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        payload["strategy"] = STRATEGY
        with pytest.raises(SchemaMismatchError, match="schema"):
            EvaluationResult.from_json_dict(payload)
