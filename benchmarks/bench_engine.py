"""Engine microbenchmarks: event throughput of both simulators.

``test_san_event_throughput`` is the headline number the CI bench job
gates: it records the kernel's own ``events_per_sec`` counter (see
:mod:`repro.san.profiling`) in the benchmark's ``extra_info``, and
``check_benchmark_regression.py`` fails the job when it regresses more
than the threshold against ``BENCH_engine_baseline.json``.
``test_san_event_throughput_full_kernel`` times the full-rescan
reference kernel so the dependency index's speedup stays visible in
the same report.
"""

from repro.core import HOUR, ModelParameters, SimulationPlan
from repro.core.simulation import run_single
from repro.core.system import build_system
from repro.cluster import ClusterSimulator, Engine, SharedLink
from repro.core import YEAR
from repro.san import Simulator, StreamRegistry

# 400 simulated hours ≈ 30k+ events per replication: long enough that
# the events/sec figure is dominated by the steady-state event loop,
# not model construction (the 40 h variant was ±25% run-to-run).
_SAN_PLAN = SimulationPlan(warmup=2 * HOUR, observation=400 * HOUR, replications=1)


def test_san_event_throughput(benchmark):
    """Events per second of the SAN executive (incremental kernel)."""

    def run():
        return run_single(ModelParameters(), _SAN_PLAN, seed=1)

    _, output, _ = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = output.kernel_stats
    benchmark.extra_info["kernel"] = stats.kernel
    benchmark.extra_info["events"] = stats.events
    benchmark.extra_info["events_per_sec"] = stats.events_per_sec
    benchmark.extra_info["check_efficiency"] = stats.check_efficiency
    assert output.event_count > 1000
    assert stats.kernel == "incremental"


def test_san_event_throughput_full_kernel(benchmark):
    """Same workload on the full-rescan reference kernel."""

    def run():
        system = build_system(ModelParameters())
        simulator = Simulator(
            system.model,
            ctx=system.ledger,
            streams=StreamRegistry(1),
            kernel="full",
        )
        return simulator.run(until=_SAN_PLAN.horizon, warmup=_SAN_PLAN.warmup)

    output = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = output.kernel_stats
    benchmark.extra_info["kernel"] = stats.kernel
    benchmark.extra_info["events"] = stats.events
    benchmark.extra_info["events_per_sec"] = stats.events_per_sec
    assert output.event_count > 1000


def test_cluster_event_throughput(benchmark):
    """Events per second of the message-level cluster simulator."""
    params = ModelParameters(
        n_processors=1024, processors_per_node=8, mttf_node=1000 * YEAR
    )

    def run():
        return ClusterSimulator(params, seed=1).run(10 * HOUR)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.rounds > 0


def test_shared_link_throughput(benchmark):
    """Processor-sharing link with 64 concurrent transfers."""

    def run():
        engine = Engine()
        link = SharedLink(engine, bandwidth=350e6)
        done = []
        for _ in range(64):
            link.transfer(256e6, lambda: done.append(engine.now))
        engine.run()
        return done

    done = benchmark(run)
    assert len(done) == 64
