"""Incremental-vs-full kernel trajectory equivalence.

The incremental kernel's correctness claim is *trajectory
preservation*: with the same seed it must fire the same activities at
the same times in the same order as the full-rescan reference kernel —
bit-identical, not statistically equivalent. These tests check that on
the complete checkpoint-system model (every gate, restart and
``resample_on`` construct of the paper) and on the
correlated-failures variant, whose common-mode bursts exercise the
longest instantaneous chains.

The incremental kernel also replays the application cycle outside its
cascade while no observer of it is armed (``app_cycle_group``), so the
same comparison checks the replay: one point per parameter family the
figures sweep, points where an observer waits on the cycle, runs
continued across ``run()`` calls, and runs with per-event checks. A
quiet predicate that misses an observer must make the kernels diverge,
and a declaration that breaks a static precondition is refused.
"""

import hashlib

import pytest

from repro.core.parameters import MB, MINUTE, YEAR, CoordinationMode, ModelParameters
from repro.core.submodels import names
from repro.core.submodels.app_cycle import APP_CYCLE_OBSERVERS
from repro.core.submodels.useful_work import breakdown_rewards, useful_work_reward
from repro.core.system import build_system
from repro.obs.trace import MemorySink
from repro.san import (
    InputGate,
    ModelDefinitionError,
    Simulator,
    non_negative_markings,
)
from repro.strategies import resolve

HOUR = 3600.0

#: KernelStats counters both kernels must report equal on one trajectory.
SHARED_COUNTERS = (
    "events", "heap_pushes", "stale_pops", "resamples", "clock_invalidations",
    "stabilisation_firings", "max_stabilisation_chain",
)


def _run(kernel: str, params: ModelParameters, hours: float, seed: int,
         spans=None, prepare=None, **run_kwargs):
    """Run one kernel; ``spans`` lists the ``until`` hours of successive
    ``run()`` calls (default: one call to ``hours``), and
    ``prepare(system)`` edits the model before the simulator is built.
    Returns the last call's output and the sink of its firings."""
    system = build_system(params)
    if prepare is not None:
        prepare(system)
    rewards = [useful_work_reward(system.ledger)] + breakdown_rewards()
    sink = MemorySink()
    simulator = Simulator(
        system.model, ctx=system.ledger, streams=seed, sink=sink, kernel=kernel
    )
    warmup = 2 * HOUR if hours > 4 else 0.0
    for until in spans or (hours,):
        output = simulator.run(
            until=until * HOUR, warmup=warmup, rewards=rewards, **run_kwargs
        )
    return output, sink


def _trace_digest(sink: MemorySink) -> str:
    text = "".join(
        f"{event.time!r} {event.name} {event.fields['case']}\n"
        for event in sink.of_kind("san.firing")
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _assert_identical(params: ModelParameters, hours: float, seed: int,
                      **kwargs):
    inc_out, inc_trace = _run("incremental", params, hours, seed, **kwargs)
    full_out, full_trace = _run("full", params, hours, seed, **kwargs)

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
    # Clock and heap traffic is the trajectory's, whichever kernel (and
    # whether the replay or the cascade) fired each activity.
    for name in SHARED_COUNTERS:
        assert getattr(inc_stats, name) == getattr(full_out.kernel_stats, name), name
    # Sanity: the runs actually did something.
    assert inc_out.event_count > 1000
    assert full_out.kernel_stats.deferred_firings == 0
    return inc_out


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
#: incremental kernel's event loop became one cascade; since then
#: `enabled_checks_skipped` was redefined (it used to count an
#: instantaneous activity checked and found disabled as skipped), and
#: the application-cycle replay moved the incremental kernel's
#: `enabled_checks` (was 31091), `enabled_checks_skipped` (152680),
#: `dirty_notifications` (2654) and `stabilisations` (5746) and added
#: `deferred_firings`. The digest also depends on numpy's generator streams and the platform's
#: math library: a toolchain change moves both kernels alike, which the
#: equivalence tests above tell apart from a kernel change.
PINNED_TRACE_SHA256 = "789f667b1708adcda2802e4dfe76d4d35eb5c624baaaf7486b342134b4b650ea"
PINNED_STATS = {
    "incremental": dict(
        kernel="incremental", runs=1, events=8055, heap_pushes=6387,
        stale_pops=367, enabled_checks=6414, enabled_checks_skipped=177357,
        resamples=6386, clock_invalidations=501, dirty_notifications=973,
        stabilisations=837, stabilisation_firings=2174,
        max_stabilisation_chain=1, deferred_firings=6590,
    ),
    "full": dict(
        kernel="full", runs=1, events=8055, heap_pushes=6387,
        stale_pops=367, enabled_checks=183771, enabled_checks_skipped=0,
        resamples=6386, clock_invalidations=501, dirty_notifications=0,
        stabilisations=5882, stabilisation_firings=2174,
        max_stabilisation_chain=1, deferred_firings=0,
    ),
}


@pytest.mark.parametrize("kernel", sorted(PINNED_STATS))
def test_pinned_trajectory_and_counters(kernel):
    """The trajectory and every kernel counter, pinned: a change to the
    event loop that keeps the two kernels equal to each other but
    moves both, or shifts any counter, fails here."""
    out, sink = _run(kernel, ModelParameters(), hours=102.0, seed=1)
    assert _trace_digest(sink) == PINNED_TRACE_SHA256
    stats = out.kernel_stats
    assert {name: getattr(stats, name) for name in PINNED_STATS[kernel]} == (
        PINNED_STATS[kernel]
    )


#: One point per parameter family the figures sweep, plus two points at
#: which an observer of the application cycle waits on it. At the base
#: point it never does: the checkpoint timer restarts with the cycle at
#: every dump, recovery and skip, so every quiesce lands at the start of
#: a compute phase and every dump finds the I/O nodes idle.
FAMILIES = {
    "base": ModelParameters(),
    "interval-15min": ModelParameters(checkpoint_interval=15 * MINUTE),
    "timeout-20s": ModelParameters(
        coordination_mode=CoordinationMode.MAX_OF_EXPONENTIALS, timeout=20.0
    ),
    "timeout-120s": ModelParameters(
        coordination_mode=CoordinationMode.MAX_OF_EXPONENTIALS, timeout=120.0
    ),
    "correlated": ModelParameters(
        n_processors=262144, mttf_node=3 * YEAR, prob_correlated_failure=0.1
    ),
    "generic-correlated": ModelParameters(
        mttf_node=3 * YEAR, generic_correlated_coefficient=0.0025
    ),
    "max-of-exponentials": ModelParameters(
        coordination_mode=CoordinationMode.MAX_OF_EXPONENTIALS
    ),
    "aggregate-exponential": ModelParameters(
        coordination_mode=CoordinationMode.AGGREGATE_EXPONENTIAL
    ),
    "synchronous-write": ModelParameters(background_checkpoint_write=False),
    "erlang2-recovery": ModelParameters(recovery_distribution="erlang2"),
    "deterministic-recovery": ModelParameters(recovery_distribution="deterministic"),
    "reboot-threshold": ModelParameters(
        recovery_failure_threshold=1, mttf_node=0.4 * YEAR
    ),
    "incremental-strategy": resolve(
        "incremental:compression_ratio=0.5,full_checkpoint_period=4"
    ).configure(ModelParameters()),
    # 1795 s is 5 s short of ten 180-s cycles: the quiesce arrives in an
    # I/O phase and `to_coordination` waits for `app_io_end`.
    "quiesce-in-io-phase": ModelParameters(checkpoint_interval=1795.0),
    # A 102 s application write outlasts the 10 s quiesce: `dump_chkpt`
    # waits for `write_app` to free the I/O nodes.
    "dump-waits-for-app-write": ModelParameters(app_io_data_per_node=200 * MB),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_replay_matches_full_kernel_per_family(family):
    out = _assert_identical(FAMILIES[family], hours=30.0, seed=1)
    assert out.kernel_stats.deferred_firings > 0


def test_replay_continues_across_run_calls():
    """Replayed clocks wait in the side heap across ``run()`` calls and
    the closing entry is pushed back as with one heap, so a continued
    trajectory is the full kernel's."""
    out = _assert_identical(ModelParameters(), hours=5.0, seed=3, spans=(5.0, 12.0, 30.0))
    assert out.kernel_stats.deferred_firings > 0


def test_replay_runs_the_per_event_checks():
    """Invariants and ``stop_when`` see a replayed firing as they see
    any other: both kernels call them at the same events and stop at
    the same one."""
    runs = {}
    for kernel in ("incremental", "full"):
        seen = []

        def invariant(state, seen=seen):
            seen.append(state.time)
            return non_negative_markings(state)

        def stop_when(state, seen=seen):
            return len(seen) > 2500

        out, sink = _run(
            kernel, ModelParameters(), 60.0, 5,
            invariants=[invariant], stop_when=stop_when,
        )
        runs[kernel] = (out, sink.events, seen)
    (inc_out, inc_events, inc_seen), (full_out, full_events, full_seen) = (
        runs["incremental"], runs["full"]
    )
    assert inc_seen == full_seen
    assert inc_events == full_events
    assert inc_out.final_time == full_out.final_time < 60 * HOUR
    assert inc_out.kernel_stats.deferred_firings > 0


def _regroup(model, **changes):
    group = model.replay_group
    fields = dict(
        name=group.name, members=group.members, quiet=group.quiet,
        writes=group.writes, fire=group.fire,
    )
    fields.update(changes)
    model.replay_group = type(group)(**fields)


def _arm_checkpoint_write(system) -> None:
    """A buffered checkpoint waits for the I/O nodes, busy with an
    application write. The model itself never leaves `enable_chkpt`
    marked at the end of a cascade (`dump_chkpt` needs the I/O nodes
    idle, and `start_write_chkpt` outranks `start_write_app`), so only
    a marking set before the run arms its observer."""
    model = system.model
    model.place(names.ENABLE_CHKPT).set(1)
    model.place(names.IO_IDLE).set(0)
    model.place(names.IO_WRITING_APP).set(1)
    system.ledger.checkpoint_buffered()


#: Per place of the quiet predicate: parameters and a start at which
#: its observer is armed while the cycle moves.
ARMED = {
    names.QUIESCING: (FAMILIES["quiesce-in-io-phase"], None),
    names.DUMPING: (FAMILIES["dump-waits-for-app-write"], None),
    names.ENABLE_CHKPT: (ModelParameters(), _arm_checkpoint_write),
}


@pytest.mark.parametrize("dropped", APP_CYCLE_OBSERVERS)
def test_quiet_predicate_missing_an_observer_diverges(dropped):
    """The equivalence harness catches a wrong declaration: without
    ``dropped`` the replay fires the cycle past an armed observer."""
    params, prepare = ARMED[dropped]
    _, full_trace = _run("full", params, 10.0, 1, prepare=prepare)
    _, inc_trace = _run("incremental", params, 10.0, 1, prepare=prepare)
    assert inc_trace.events == full_trace.events

    def without_dropped(system):
        if prepare is not None:
            prepare(system)
        model = system.model
        kept = tuple(name for name in APP_CYCLE_OBSERVERS if name != dropped)
        places = [model.place(name) for name in kept]
        _regroup(model, quiet=InputGate(
            "app_cycle_unobserved",
            predicate=lambda s: not any(place.tokens for place in places),
            reads=kept,
        ))

    _, wrong_trace = _run("incremental", params, 10.0, 1, prepare=without_dropped)
    assert wrong_trace.events != full_trace.events


REFUSALS = {
    "member-resample-on": (
        lambda m: setattr(m.activity("write_app"), "resample_on", (names.PROP_WINDOW,)),
        "member 'write_app' declares resample_on",
    ),
    "outside-watcher": (
        lambda m: setattr(
            m.activity("io_failure"), "resample_on",
            m.activity("io_failure").resample_on + (names.IO_IDLE,),
        ),
        "activity 'io_failure' outside the group watches 'io_idle'",
    ),
    "member-gate-undeclared": (
        lambda m: setattr(
            m.activity("compute_phase_end"), "input_gates",
            (InputGate("app_progressing", predicate=lambda s: True),),
        ),
        "gate 'app_progressing' does not declare its reads",
    ),
    "quiet-undeclared": (
        lambda m: _regroup(m, quiet=InputGate("quiet", predicate=lambda s: True)),
        "quiet predicate 'quiet' must declare its reads",
    ),
    "quiet-reads-a-write": (
        lambda m: _regroup(
            m, quiet=InputGate("quiet", predicate=lambda s: True, reads=[names.IO_IDLE])
        ),
        "quiet predicate reads 'io_idle', which a member writes",
    ),
    "writes-omit-an-arc": (
        lambda m: _regroup(m, writes=m.replay_group.writes[:3]),
        "member 'start_write_app' writes 'io_idle' through an arc",
    ),
    "unknown-member": (
        lambda m: _regroup(m, members=m.replay_group.members[:3] + ("no_such",)),
        "names unknown activity 'no_such'",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_bad_replay_declaration_is_refused(case):
    """The incremental kernel refuses a declaration that breaks a static
    precondition of the replay and names it; the full kernel, which
    never replays, ignores the declaration."""
    mutate, message = REFUSALS[case]
    system = build_system(ModelParameters())
    mutate(system.model)
    with pytest.raises(ModelDefinitionError, match="replay group 'app_cycle'") as info:
        Simulator(system.model, ctx=system.ledger, kernel="incremental")
    assert message in str(info.value)
    Simulator(system.model, ctx=system.ledger, kernel="full")


def test_deferred_firings_count_the_replay():
    """Most firings of a base run leave the cascade; none do on the full
    kernel or without the application cycle."""
    out, _ = _run("incremental", ModelParameters(), 30.0, 2)
    assert 3 * out.kernel_stats.deferred_firings > 2 * out.event_count
    full_out, _ = _run("full", ModelParameters(), 30.0, 2)
    assert full_out.kernel_stats.deferred_firings == 0
    pure = ModelParameters(compute_fraction=1.0)
    assert build_system(pure).model.replay_group is None
    pure_out, _ = _run("incremental", pure, 30.0, 2)
    assert pure_out.event_count > 0
    assert pure_out.kernel_stats.deferred_firings == 0
