"""Cross-validation: the three independent implementations must agree.

The repository has three ways to predict the same quantities:

1. the SAN model (aggregate discrete-event simulation),
2. the message-level cluster simulator (per-node ground truth),
3. closed forms (renewal model, coordination order statistics).

Agreement between them on matched configurations is the strongest
correctness evidence the reproduction can offer.
"""

import pytest

from repro.analytical import coordination, useful_work
from repro.cluster import ClusterSimulator
from repro.core import (
    HOUR,
    MINUTE,
    YEAR,
    CoordinationMode,
    ModelParameters,
    SimulationPlan,
    simulate,
)

pytestmark = pytest.mark.slow


class TestSANvsRenewal:
    @pytest.mark.parametrize("n_processors", [32768, 131072])
    def test_useful_work_fraction(self, n_processors):
        params = ModelParameters(n_processors=n_processors, mttf_node=1 * YEAR)
        plan = SimulationPlan(warmup=30 * HOUR, observation=400 * HOUR, replications=3)
        simulated = simulate(params, plan, seed=7).useful_work_fraction.mean
        overhead = params.mttq + params.checkpoint_dump_time
        predicted = useful_work.useful_work_fraction(
            params.checkpoint_interval, overhead, params.system_mtbf, params.mttr
        )
        assert simulated == pytest.approx(predicted, abs=0.06)


class TestSANvsCluster:
    def test_failure_free_useful_work_agrees(self):
        # 128 nodes, identical configuration, failures disabled.
        params = ModelParameters(
            n_processors=1024,
            processors_per_node=8,
            mttf_node=100_000 * YEAR,
            coordination_mode=CoordinationMode.MAX_OF_EXPONENTIALS,
            coordination_over="nodes",
            compute_fraction=1.0,
        )
        plan = SimulationPlan(warmup=5 * HOUR, observation=60 * HOUR, replications=2)
        san_uwf = simulate(params, plan, seed=3).useful_work_fraction.mean
        cluster = ClusterSimulator(params, seed=3).run(60 * HOUR)
        assert san_uwf == pytest.approx(cluster.useful_work_fraction, abs=0.01)

    def test_coordination_distribution_agrees(self):
        # The SAN samples coordination from the closed-form order
        # statistic; the cluster measures it from per-node messages.
        nodes = 128
        params = ModelParameters(
            n_processors=nodes * 8,
            processors_per_node=8,
            mttf_node=100_000 * YEAR,
            mttq=10.0,
        )
        cluster = ClusterSimulator(params, seed=5).run(60 * HOUR)
        expected = coordination.expected_coordination_time(nodes, 10.0)
        assert cluster.mean_coordination_time == pytest.approx(expected, rel=0.12)


class TestPaperHeadlines:
    def test_optimum_processor_count_near_128k(self):
        # Section 7.1: peak total useful work at ~128K processors for
        # MTTF 1 yr, MTTR 10 min, 30-minute checkpoints.
        plan = SimulationPlan(warmup=20 * HOUR, observation=250 * HOUR, replications=3)
        tuw = {}
        for n in (65536, 131072, 262144):
            result = simulate(ModelParameters(n_processors=n), plan, seed=13)
            tuw[n] = result.total_useful_work.mean
        assert tuw[131072] > tuw[65536]
        assert tuw[131072] > tuw[262144]

    def test_useful_work_fraction_at_peak_below_half(self):
        # "even when the useful work is maximized, the useful work
        # fraction is no more than 50% for an MTTF per node of 1 year".
        plan = SimulationPlan(warmup=20 * HOUR, observation=250 * HOUR, replications=3)
        result = simulate(ModelParameters(n_processors=131072), plan, seed=17)
        assert result.useful_work_fraction.mean < 0.5
        assert result.useful_work_fraction.mean == pytest.approx(0.427, abs=0.06)

    def test_more_processors_per_node_raises_tuw_not_uwf(self):
        # Figure 4g/4h: at fixed node count and per-node MTTF, more
        # processors per node scale TUW while UWF stays put.
        plan = SimulationPlan(warmup=20 * HOUR, observation=200 * HOUR, replications=3)
        nodes = 8192
        eight = simulate(
            ModelParameters(
                n_processors=nodes * 8, processors_per_node=8, mttf_node=1 * YEAR
            ),
            plan,
            seed=19,
        )
        thirtytwo = simulate(
            ModelParameters(
                n_processors=nodes * 32, processors_per_node=32, mttf_node=1 * YEAR
            ),
            plan,
            seed=19,
        )
        assert thirtytwo.total_useful_work.mean > 3.0 * eight.total_useful_work.mean
        assert thirtytwo.useful_work_fraction.mean == pytest.approx(
            eight.useful_work_fraction.mean, abs=0.05
        )

    def test_generic_correlated_failures_halve_uwf_at_scale(self):
        # Figure 8's headline at 256K processors, MTTF 3 yr.
        plan = SimulationPlan(warmup=20 * HOUR, observation=250 * HOUR, replications=3)
        base = ModelParameters(n_processors=262144, mttf_node=3 * YEAR)
        without = simulate(base, plan, seed=23).useful_work_fraction.mean
        with_cf = simulate(
            base.with_overrides(
                generic_correlated_coefficient=0.0025, frate_correlated_factor=400.0
            ),
            plan,
            seed=23,
        ).useful_work_fraction.mean
        assert without - with_cf == pytest.approx(0.24, abs=0.08)


class TestSANvsClusterTimeouts:
    def test_abort_behaviour_agrees(self):
        # Identical configuration with an aggressive timeout: the SAN's
        # closed-form coordination race and the cluster's per-node
        # message race must abort at comparable rates, and both must
        # agree with the order-statistic prediction.
        nodes = 256
        params = ModelParameters(
            n_processors=nodes * 8,
            processors_per_node=8,
            mttf_node=100_000 * YEAR,
            mttq=10.0,
            timeout=70.0,
            coordination_mode=CoordinationMode.MAX_OF_EXPONENTIALS,
            coordination_over="nodes",
            compute_fraction=1.0,
        )
        from repro.cluster import ClusterSimulator
        from repro.core import build_system
        from repro.core.submodels import useful_work_reward
        from repro.san import Simulator, StreamRegistry

        cluster = ClusterSimulator(params, seed=41).run(150 * HOUR)
        cluster_abort_rate = cluster.aborts / cluster.rounds

        system = build_system(params)
        simulator = Simulator(
            system.model, ctx=system.ledger, streams=StreamRegistry(41)
        )
        simulator.run(
            until=150 * HOUR, rewards=[useful_work_reward(system)]
        )
        ledger = system.ledger
        san_rounds = (
            ledger.counters.checkpoints_buffered
            + ledger.counters.checkpoints_aborted_timeout
        )
        san_abort_rate = ledger.counters.checkpoints_aborted_timeout / san_rounds

        predicted = coordination.abort_probability(nodes, 10.0, 70.0)
        assert cluster_abort_rate == pytest.approx(predicted, abs=0.12)
        assert san_abort_rate == pytest.approx(predicted, abs=0.12)
        assert san_abort_rate == pytest.approx(cluster_abort_rate, abs=0.15)
