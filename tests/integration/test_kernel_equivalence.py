"""Incremental-vs-full kernel trajectory equivalence.

The incremental kernel's correctness claim is *trajectory
preservation*: with the same seed it must fire the same activities at
the same times in the same order as the full-rescan reference kernel —
bit-identical, not statistically equivalent. These tests check that on
the complete checkpoint-system model (every gate, restart and
``resample_on`` construct of the paper) and on the
correlated-failures variant, whose common-mode bursts exercise the
longest instantaneous chains.
"""

import hashlib

import pytest

from repro.core.parameters import ModelParameters
from repro.core.submodels.useful_work import breakdown_rewards, useful_work_reward
from repro.core.system import build_system
from repro.san import MemoryTracer, Simulator

HOUR = 3600.0


def _run(kernel: str, params: ModelParameters, hours: float, seed: int):
    system = build_system(params)
    rewards = [useful_work_reward(system.ledger)] + breakdown_rewards()
    tracer = MemoryTracer()
    simulator = Simulator(
        system.model, ctx=system.ledger, streams=seed, tracer=tracer, kernel=kernel
    )
    warmup = 2 * HOUR if hours > 4 else 0.0
    output = simulator.run(until=hours * HOUR, warmup=warmup, rewards=rewards)
    return output, tracer


def _trace_digest(tracer: MemoryTracer) -> str:
    text = "".join(
        f"{event.time!r} {event.activity} {event.case}\n" for event in tracer.events
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _assert_identical(params: ModelParameters, hours: float, seed: int) -> None:
    inc_out, inc_trace = _run("incremental", params, hours, seed)
    full_out, full_trace = _run("full", params, hours, seed)

    # The strongest check first: every firing, in order, with exact
    # times and case choices.
    assert inc_trace.events == full_trace.events
    assert inc_out.event_count == full_out.event_count
    assert inc_out.firings == full_out.firings
    # Reward accumulation shares the trajectory, so it must match
    # exactly too (same accumulation order => same float results).
    assert set(inc_out.rewards) == set(full_out.rewards)
    for name, result in inc_out.rewards.items():
        assert result.accumulated == full_out.rewards[name].accumulated, name
    # Skipped checks are exactly the ones the full kernel made and the
    # incremental kernel did not.
    inc_stats = inc_out.kernel_stats
    assert inc_stats.enabled_checks + inc_stats.enabled_checks_skipped == (
        full_out.kernel_stats.enabled_checks
    )
    # Sanity: the runs actually did something.
    assert inc_out.event_count > 1000


@pytest.mark.parametrize("seed", [1, 7])
def test_checkpoint_model_trajectories_identical(seed):
    """Base paper parameters, long enough to cover many checkpoint
    rounds, failures, recoveries and at least one reboot window."""
    _assert_identical(ModelParameters(), hours=100.0, seed=seed)


def test_correlated_failure_trajectories_identical():
    """Correlated-failure variant: common-mode bursts drive the
    deepest instantaneous cascades and the most clock invalidations."""
    params = ModelParameters(
        prob_correlated_failure=0.2, generic_correlated_coefficient=0.3
    )
    _assert_identical(params, hours=2.0, seed=7)


def test_incremental_kernel_actually_skips_work():
    """Guard against the index silently degenerating to a full rescan:
    the incremental kernel must skip the vast majority of enabling
    checks on this model."""
    out, _ = _run("incremental", ModelParameters(), hours=50.0, seed=3)
    stats = out.kernel_stats
    assert stats.kernel == "incremental"
    assert stats.enabled_checks_skipped > 0
    assert stats.check_efficiency > 0.5
    full_out, _ = _run("full", ModelParameters(), hours=50.0, seed=3)
    assert full_out.kernel_stats.enabled_checks_skipped == 0
    assert stats.enabled_checks + stats.enabled_checks_skipped == (
        full_out.kernel_stats.enabled_checks
    )


#: Recorded for base parameters, seed 1, 2 h warm-up + 100 h, before the
#: incremental kernel's event loop became one cascade; only
#: `enabled_checks_skipped` was redefined since (it used to count an
#: instantaneous activity checked and found disabled as skipped). The
#: digest also depends on numpy's generator streams and the platform's
#: math library: a toolchain change moves both kernels alike, which the
#: equivalence tests above tell apart from a kernel change.
PINNED_TRACE_SHA256 = "789f667b1708adcda2802e4dfe76d4d35eb5c624baaaf7486b342134b4b650ea"
PINNED_STATS = {
    "incremental": dict(
        kernel="incremental", runs=1, events=8055, heap_pushes=6387,
        stale_pops=367, enabled_checks=31091, enabled_checks_skipped=152680,
        resamples=6386, clock_invalidations=501, dirty_notifications=2654,
        stabilisations=5746, stabilisation_firings=2174,
        max_stabilisation_chain=1,
    ),
    "full": dict(
        kernel="full", runs=1, events=8055, heap_pushes=6387,
        stale_pops=367, enabled_checks=183771, enabled_checks_skipped=0,
        resamples=6386, clock_invalidations=501, dirty_notifications=0,
        stabilisations=5882, stabilisation_firings=2174,
        max_stabilisation_chain=1,
    ),
}


@pytest.mark.parametrize("kernel", sorted(PINNED_STATS))
def test_pinned_trajectory_and_counters(kernel):
    """The trajectory and every kernel counter, pinned: a change to the
    event loop that keeps the two kernels equal to each other but
    moves both, or shifts any counter, fails here."""
    out, tracer = _run(kernel, ModelParameters(), hours=102.0, seed=1)
    assert _trace_digest(tracer) == PINNED_TRACE_SHA256
    stats = out.kernel_stats
    assert {name: getattr(stats, name) for name in PINNED_STATS[kernel]} == (
        PINNED_STATS[kernel]
    )
