"""Clock-invalidation semantics, checked against BOTH kernels.

SAN reactivation semantics (Möbius restart): a pending clock is
discarded when the activity becomes disabled, and a fresh delay is
drawn on re-enablement; ``resample_on`` additionally discards the
clock when a watched place's marking changes. The incremental kernel
reconciles clocks only for activities its dependency index marks
dirty, so these tests run every scenario under both kernels and also
pin the two kernels' outcomes to each other — an index gap would show
up as a behavioural difference here.
"""

import pytest

from repro.obs.trace import MemorySink
from repro.san import (
    Arc,
    Case,
    Deterministic,
    Exponential,
    InputGate,
    InstantaneousActivity,
    OutputGate,
    SANModel,
    Simulator,
    TimedActivity,
)

KERNELS = ["incremental", "full"]


def _times_of(sink, name):
    """Firing times of one activity."""
    return [event.time for event in sink.events if event.name == name]


def _build_disable_reenable_model():
    """'slow' (10 time units) is disabled at t=1 and re-enabled at
    t=11: restart semantics require a fresh clock, firing at 21."""
    model = SANModel("m")
    gate_place = model.add_place("open", initial=1)
    done = model.add_place("done")
    model.add_activity(
        TimedActivity(
            "slow",
            Deterministic(10.0),
            input_arcs=[Arc(gate_place)],
            cases=[Case(output_arcs=[Arc(done)])],
        )
    )
    toggler = model.add_place("toggle", initial=1)
    off = model.add_place("off")
    model.add_activity(
        TimedActivity(
            "close",
            Deterministic(1.0),
            input_arcs=[Arc(toggler)],
            cases=[
                Case(
                    output_arcs=[Arc(off)],
                    output_gates=[
                        OutputGate("take", lambda state: state.place("open").clear())
                    ],
                )
            ],
        )
    )
    model.add_activity(
        TimedActivity(
            "reopen",
            Deterministic(10.0),
            input_arcs=[Arc(off)],
            cases=[
                Case(
                    output_gates=[
                        OutputGate("give", lambda state: state.place("open").set(1))
                    ]
                )
            ],
        )
    )
    return model


@pytest.mark.parametrize("kernel", KERNELS)
def test_disable_discards_clock(kernel):
    sink = MemorySink()
    Simulator(_build_disable_reenable_model(), sink=sink, kernel=kernel).run(
        until=30.0
    )
    assert _times_of(sink, "slow") == [pytest.approx(21.0)]


@pytest.mark.parametrize("kernel", KERNELS)
def test_gate_predicate_disable_discards_clock(kernel):
    """Same restart semantics when the disabling happens through a
    gate *predicate* (declared via ``reads``) rather than an input
    arc — the path the dependency index must cover explicitly."""
    model = SANModel("m")
    flag = model.add_place("flag", initial=1)
    done = model.add_place("done")
    model.add_activity(
        TimedActivity(
            "work",
            Deterministic(10.0),
            input_gates=[
                InputGate(
                    "flag_up_not_done",
                    predicate=lambda s: s.tokens("flag") > 0 and s.tokens("done") == 0,
                    reads=["flag", "done"],
                )
            ],
            cases=[Case(output_arcs=[Arc(done)])],
        )
    )
    ticker = model.add_place("tick", initial=1)
    lowered = model.add_place("lowered")
    model.add_activity(
        TimedActivity(
            "lower",
            Deterministic(4.0),
            input_arcs=[Arc(ticker)],
            cases=[
                Case(
                    output_arcs=[Arc(lowered)],
                    output_gates=[
                        OutputGate("down", lambda state: state.place("flag").clear())
                    ],
                )
            ],
        )
    )
    model.add_activity(
        TimedActivity(
            "raise",
            Deterministic(3.0),
            input_arcs=[Arc(lowered)],
            cases=[
                Case(
                    output_gates=[
                        OutputGate("up", lambda state: state.place("flag").set(1))
                    ]
                )
            ],
        )
    )
    sink = MemorySink()
    Simulator(model, sink=sink, kernel=kernel).run(until=30.0)
    # Disabled at 4, re-enabled at 7, restart => fires at 17; the
    # gate's 'done' clause then keeps it disabled.
    assert _times_of(sink, "work") == [pytest.approx(17.0)]


@pytest.mark.parametrize("kernel", KERNELS)
def test_resample_on_marking_change(kernel):
    """A ``resample_on`` place flip must re-draw the delay even though
    the activity stays enabled throughout."""
    model = SANModel("m")
    model.add_place("mod")
    fired = model.add_place("fired")

    def rate(state):
        return 1000.0 if state.tokens("mod") else 1e-9

    model.add_activity(
        TimedActivity(
            "event",
            Exponential(rate),
            cases=[Case(output_arcs=[Arc(fired)])],
            input_gates=[
                InputGate(
                    "not_done",
                    predicate=lambda s: s.tokens("fired") == 0,
                    reads=["fired"],
                )
            ],
            resample_on=["mod"],
        )
    )
    trigger = model.add_place("trigger", initial=1)
    model.add_activity(
        TimedActivity(
            "flip",
            Deterministic(5.0),
            input_arcs=[Arc(trigger)],
            cases=[Case(output_arcs=[Arc(model.place("mod"))])],
        )
    )
    sink = MemorySink()
    Simulator(model, streams=2, sink=sink, kernel=kernel).run(until=100.0)
    times = _times_of(sink, "event")
    assert len(times) == 1
    assert 5.0 <= times[0] < 5.1


@pytest.mark.parametrize("kernel", KERNELS)
def test_transient_disable_through_cascade_resamples(kernel):
    """Disable-then-re-enable *within one stabilisation* (timed firing
    clears the place, an instantaneous firing re-marks it) still
    restarts the clock: the kernel reconciles between instantaneous
    firings, so the disabled instant is observed."""
    model = SANModel("m")
    stage = model.add_place("stage", initial=1)
    kicks = model.add_place("kicks", initial=1)
    redo = model.add_place("redo")
    done = model.add_place("done")
    model.add_activity(
        TimedActivity(
            "stage_work",
            Deterministic(10.0),
            input_arcs=[Arc(stage)],
            cases=[Case(output_arcs=[Arc(done)])],
        )
    )
    model.add_activity(
        TimedActivity(
            "kick",
            Deterministic(6.0),
            input_arcs=[Arc(kicks)],
            cases=[
                Case(
                    output_arcs=[Arc(redo)],
                    output_gates=[
                        OutputGate("drop", lambda state: state.place("stage").clear())
                    ],
                )
            ],
        )
    )
    model.add_activity(
        InstantaneousActivity(
            "restage",
            input_arcs=[Arc(redo)],
            cases=[Case(output_arcs=[Arc(stage)])],
        )
    )
    sink = MemorySink()
    Simulator(model, sink=sink, kernel=kernel).run(until=30.0)
    assert _times_of(sink, "stage_work") == [pytest.approx(16.0)]


@pytest.mark.parametrize("kernel", KERNELS)
def test_atomic_self_replacement_keeps_clock(kernel):
    """Clearing and re-marking the input place within ONE firing is
    atomic: the activity never observes a disabled marking, so the
    pending clock survives."""
    model = SANModel("m")
    stage = model.add_place("stage", initial=1)
    churn = model.add_place("churn", initial=1)
    done = model.add_place("done")
    model.add_activity(
        TimedActivity(
            "stage_work",
            Deterministic(10.0),
            input_arcs=[Arc(stage)],
            cases=[Case(output_arcs=[Arc(done)])],
        )
    )

    def cycle_stage(state):
        state.place("stage").clear()
        state.place("stage").set(1)

    model.add_activity(
        TimedActivity(
            "churner",
            Deterministic(4.0),
            input_arcs=[Arc(churn)],
            cases=[
                Case(
                    output_arcs=[Arc(churn)],
                    output_gates=[OutputGate("cycle", cycle_stage)],
                )
            ],
        )
    )
    sink = MemorySink()
    Simulator(model, sink=sink, kernel=kernel).run(until=12.0)
    assert _times_of(sink, "stage_work") == [pytest.approx(10.0)]


def test_kernels_agree_and_incremental_counts_invalidations():
    """Both kernels produce the same trace on the disable/re-enable
    model, and the incremental kernel's instrumentation records the
    invalidation it performed."""
    traces = {}
    stats = {}
    for kernel in KERNELS:
        sink = MemorySink()
        out = Simulator(
            _build_disable_reenable_model(), sink=sink, kernel=kernel
        ).run(until=30.0)
        traces[kernel] = sink.events
        stats[kernel] = out.kernel_stats
    assert traces["incremental"] == traces["full"]
    assert stats["incremental"].clock_invalidations >= 1
    assert stats["full"].clock_invalidations >= 1
