"""Behavioural scenario tests of the composed checkpoint system."""

import pytest

from repro.core import (
    HOUR,
    MINUTE,
    YEAR,
    CoordinationMode,
    ModelParameters,
    SimulationPlan,
    build_system,
    simulate,
)
from repro.core.simulation import run_single
from repro.core.submodels import USEFUL_WORK, breakdown_rewards, useful_work_reward
from repro.san import Simulator, StreamRegistry

QUICK = SimulationPlan(warmup=10 * HOUR, observation=100 * HOUR, replications=2)


def run_one(params, horizon=50 * HOUR, warmup=0.0, seed=1):
    """One replication returning (output, ledger)."""
    system = build_system(params)
    rewards = [useful_work_reward(system.ledger)] + breakdown_rewards()
    simulator = Simulator(system.model, ctx=system.ledger, streams=StreamRegistry(seed))
    output = simulator.run(until=horizon, warmup=warmup, rewards=rewards)
    return output, system.ledger


def failure_free(**overrides):
    return ModelParameters(mttf_node=1_000_000 * YEAR, **overrides)


class TestFailureFreeOperation:
    def test_checkpoint_cadence(self):
        params = failure_free()
        output, ledger = run_one(params, horizon=10 * HOUR)
        # One checkpoint per (interval + overhead); overhead ~ 57 s.
        expected = int(10 * HOUR / (params.checkpoint_interval + 57.0))
        assert abs(ledger.counters.checkpoints_buffered - expected) <= 1
        assert ledger.counters.checkpoints_committed in (
            ledger.counters.checkpoints_buffered,
            ledger.counters.checkpoints_buffered - 1,  # last write in flight
        )

    def test_useful_work_matches_overhead_model(self):
        params = failure_free()
        output, _ = run_one(params, horizon=200 * HOUR)
        # UWF ~ interval / (interval + quiesce + dump + broadcast).
        predicted = 1800.0 / (1800.0 + 10.0 + params.checkpoint_dump_time + 0.002)
        assert output.time_average(USEFUL_WORK) == pytest.approx(predicted, abs=0.01)

    def test_no_failures_recorded(self):
        _, ledger = run_one(failure_free(), horizon=20 * HOUR)
        assert ledger.counters.failures == 0
        assert ledger.counters.recoveries == 0

    def test_work_never_exceeds_time(self):
        output, _ = run_one(failure_free(), horizon=20 * HOUR)
        assert 0.0 < output.time_average(USEFUL_WORK) <= 1.0

    def test_pure_compute_workload_runs(self):
        output, ledger = run_one(
            failure_free(compute_fraction=1.0), horizon=20 * HOUR
        )
        assert ledger.counters.checkpoints_buffered > 0


class TestTimeoutAbort:
    def test_short_timeout_aborts_every_checkpoint(self):
        # Fixed quiesce time of 10 s with a 1 s timeout: the timer
        # always expires first and every checkpoint is abandoned.
        params = failure_free(timeout=1.0)
        _, ledger = run_one(params, horizon=20 * HOUR)
        assert ledger.counters.checkpoints_aborted_timeout > 0
        assert ledger.counters.checkpoints_buffered == 0

    def test_long_timeout_never_aborts(self):
        params = failure_free(timeout=300.0)
        _, ledger = run_one(params, horizon=20 * HOUR)
        assert ledger.counters.checkpoints_aborted_timeout == 0
        assert ledger.counters.checkpoints_buffered > 0

    def test_aborts_keep_system_running(self):
        output, _ = run_one(failure_free(timeout=1.0), horizon=20 * HOUR)
        # Aborted checkpoints cost little without failures.
        assert output.time_average(USEFUL_WORK) > 0.95


class TestFailuresAndRecovery:
    def test_failures_reduce_useful_work(self):
        healthy, _ = run_one(failure_free(), horizon=100 * HOUR)
        failing, ledger = run_one(
            ModelParameters(mttf_node=1 * YEAR), horizon=100 * HOUR, seed=3
        )
        assert ledger.counters.failures > 10
        assert ledger.counters.recoveries == ledger.counters.failures
        assert failing.time_average(USEFUL_WORK) < healthy.time_average(USEFUL_WORK)

    def test_time_breakdown_sums_sensibly(self):
        output, _ = run_one(ModelParameters(), horizon=100 * HOUR, seed=5)
        executing = output.time_average("frac_execution")
        checkpointing = output.time_average("frac_checkpointing")
        recovering = output.time_average("frac_recovering")
        rebooting = output.time_average("frac_rebooting")
        total = executing + checkpointing + recovering + rebooting
        # The four states cover all time except I/O-node-only restarts.
        assert total == pytest.approx(1.0, abs=0.02)

    def test_useful_work_below_execution_time(self):
        output, _ = run_one(ModelParameters(), horizon=100 * HOUR, seed=5)
        assert output.time_average(USEFUL_WORK) <= output.time_average(
            "frac_execution"
        ) + 1e-9

    def test_io_failures_occur_and_recover(self):
        # A tiny single-group cluster with very low MTTF exercises the
        # I/O failure path frequently.
        params = ModelParameters(
            n_processors=512,
            processors_per_node=8,
            mttf_node=0.02 * YEAR,
        )
        _, ledger = run_one(params, horizon=300 * HOUR, seed=7)
        assert ledger.counters.io_failures > 0

    def test_recovery_threshold_triggers_reboot(self):
        # Long recoveries plus a high failure rate make consecutive
        # recovery failures likely; a threshold of 1 forces reboots.
        params = ModelParameters(
            n_processors=65536,
            mttf_node=0.05 * YEAR,
            mttr=60 * MINUTE,
            recovery_failure_threshold=1,
        )
        output, ledger = run_one(params, horizon=300 * HOUR, seed=11)
        assert ledger.counters.reboots > 0
        assert output.time_average("frac_rebooting") > 0.0

    def test_no_reboots_without_threshold(self):
        params = ModelParameters(mttf_node=0.1 * YEAR)
        _, ledger = run_one(params, horizon=100 * HOUR, seed=13)
        assert ledger.counters.reboots == 0


class TestCorrelatedFailures:
    def test_propagation_windows_open(self):
        params = ModelParameters(
            mttf_node=0.25 * YEAR,
            prob_correlated_failure=1.0,
            frate_correlated_factor=400.0,
        )
        output, ledger = run_one(params, horizon=200 * HOUR, seed=17)
        assert output.time_average("frac_corr_window") > 0.0
        assert ledger.counters.recovery_interruptions > 0

    def test_no_windows_without_pe(self):
        params = ModelParameters(mttf_node=0.25 * YEAR, prob_correlated_failure=0.0)
        output, _ = run_one(params, horizon=100 * HOUR, seed=17)
        assert output.time_average("frac_corr_window") == 0.0

    def test_modulated_occupancy_matches_alpha(self):
        alpha = 0.2
        params = failure_free(
            generic_correlated_coefficient=alpha,
            generic_correlated_mode="modulated",
        )
        output, _ = run_one(params, horizon=1000 * HOUR, seed=19)
        assert output.time_average("frac_corr_window") == pytest.approx(
            alpha, abs=0.05
        )

    def test_uniform_mode_doubles_failure_count(self):
        base = ModelParameters(mttf_node=0.5 * YEAR)
        doubled = base.with_overrides(
            generic_correlated_coefficient=0.0025, frate_correlated_factor=400.0
        )
        _, ledger_base = run_one(base, horizon=400 * HOUR, seed=23)
        _, ledger_doubled = run_one(doubled, horizon=400 * HOUR, seed=23)
        ratio = ledger_doubled.counters.failures / max(1, ledger_base.counters.failures)
        assert ratio == pytest.approx(2.0, rel=0.25)


class TestCoordinationModes:
    @pytest.mark.parametrize(
        "mode",
        [
            CoordinationMode.FIXED,
            CoordinationMode.AGGREGATE_EXPONENTIAL,
            CoordinationMode.MAX_OF_EXPONENTIALS,
        ],
    )
    def test_all_modes_run(self, mode):
        params = failure_free(coordination_mode=mode)
        output, ledger = run_one(params, horizon=20 * HOUR)
        assert ledger.counters.checkpoints_buffered > 0

    def test_max_coordination_costs_more_at_scale(self):
        fixed, _ = run_one(
            failure_free(coordination_mode=CoordinationMode.FIXED),
            horizon=100 * HOUR,
        )
        ordered, _ = run_one(
            failure_free(coordination_mode=CoordinationMode.MAX_OF_EXPONENTIALS),
            horizon=100 * HOUR,
        )
        # E[max of 64K exponentials] ~ 11.7 * MTTQ >> MTTQ.
        assert ordered.time_average(USEFUL_WORK) < fixed.time_average(USEFUL_WORK)


class TestDeterminism:
    def test_same_seed_same_result(self):
        params = ModelParameters(mttf_node=0.5 * YEAR)
        a, a_output, a_counters = run_single(params, QUICK, seed=42)
        b, b_output, b_counters = run_single(params, QUICK, seed=42)
        assert a == b
        assert a_output.event_count == b_output.event_count
        assert a_counters == b_counters

    def test_different_seeds_differ(self):
        params = ModelParameters(mttf_node=0.5 * YEAR)
        a, _, _ = run_single(params, QUICK, seed=42)
        b, _, _ = run_single(params, QUICK, seed=43)
        assert a[USEFUL_WORK] != b[USEFUL_WORK]


class TestRecoveryDistribution:
    @pytest.mark.parametrize("shape", ["exponential", "erlang2", "deterministic"])
    def test_all_shapes_run(self, shape):
        params = ModelParameters(mttf_node=0.25 * YEAR, recovery_distribution=shape)
        output, ledger = run_one(params, horizon=60 * HOUR, seed=29)
        assert ledger.counters.recoveries > 0

    def test_recovery_time_per_failure_tracks_mttr(self):
        # Time in recovery per successful recovery must sit in the
        # MTTR ballpark for every shape — but the shapes differ
        # systematically: an interrupted deterministic recovery
        # restarts from zero (losing its progress), while the
        # exponential is memoryless, so deterministic recoveries cost
        # *more* per failure when failures interrupt recovery.
        results = {}
        for shape in ("exponential", "deterministic"):
            params = ModelParameters(
                mttf_node=0.25 * YEAR, recovery_distribution=shape
            )
            output, ledger = run_one(params, horizon=300 * HOUR, seed=31)
            recovering = output.time_average("frac_recovering")
            per_failure = recovering * 300 * HOUR / ledger.counters.recoveries
            results[shape] = per_failure
        mttr = 600.0
        for shape, value in results.items():
            assert 0.8 * mttr < value < 2.0 * mttr, (shape, value)
        assert results["deterministic"] > results["exponential"]

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            ModelParameters(recovery_distribution="weibull")
