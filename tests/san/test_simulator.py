"""Tests for the SAN simulation executive."""

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
    RewardVariable,
    SANModel,
    Simulator,
    TimedActivity,
)
from repro.san.errors import SimulationError


def _times_of(sink, name):
    """Firing times of one activity."""
    return [event.time for event in sink.events if event.name == name]


def simple_clock_model(period=1.0):
    """A deterministic clock that moves a token a->b->a forever."""
    model = SANModel("clock")
    a = model.add_place("a", initial=1)
    b = model.add_place("b")
    model.add_activity(
        TimedActivity(
            "go", Deterministic(period), input_arcs=[Arc(a)],
            cases=[Case(output_arcs=[Arc(b)])],
        )
    )
    model.add_activity(
        TimedActivity(
            "back", Deterministic(period), input_arcs=[Arc(b)],
            cases=[Case(output_arcs=[Arc(a)])],
        )
    )
    return model


class TestBasicExecution:
    def test_deterministic_sequencing(self):
        model = simple_clock_model(period=1.0)
        sink = MemorySink()
        Simulator(model, sink=sink).run(until=3.5)
        names = [event.name for event in sink.events]
        assert names == ["go", "back", "go"]
        assert sink.events[0].time == pytest.approx(1.0)
        assert sink.events[2].time == pytest.approx(3.0)

    def test_event_count(self):
        model = simple_clock_model(period=0.5)
        output = Simulator(model).run(until=10.0)
        assert output.event_count == 20  # one event each 0.5s, stops at 10

    def test_run_validation(self):
        model = simple_clock_model()
        simulator = Simulator(model)
        with pytest.raises(SimulationError):
            simulator.run(until=0.0)
        with pytest.raises(SimulationError):
            simulator.run(until=1.0, warmup=1.0)
        with pytest.raises(SimulationError):
            simulator.run(until=1.0, warmup=-0.5)
        # NaN fails every check: a NaN `until` would never end the run
        # (the budget turns a regression into a failure, not a hang),
        # and a NaN warm-up would zero every rate reward.
        with pytest.raises(SimulationError, match="until"):
            simulator.run(until=float("nan"), wall_clock_budget=5.0)
        with pytest.raises(SimulationError, match="warmup"):
            simulator.run(until=1.0, warmup=float("nan"))

    def test_reproducible_given_seed(self):
        def run(seed):
            model = SANModel("m")
            a = model.add_place("a", initial=1)
            model.add_activity(
                TimedActivity(
                    "loop", Exponential(1.0), input_arcs=[Arc(a)],
                    cases=[Case(output_arcs=[Arc(a)])],
                )
            )
            sink = MemorySink()
            Simulator(model, streams=seed, sink=sink).run(until=50.0)
            return [event.time for event in sink.events]

        assert run(3) == run(3)
        assert run(3) != run(4)


class TestRateRewards:
    def test_rate_integration(self):
        model = simple_clock_model(period=1.0)
        reward = RewardVariable("in_a", rate=lambda s: float(s.tokens("a")))
        output = Simulator(model).run(until=10.0, rewards=[reward])
        # Token alternates: in 'a' during [0,1), [2,3), ... -> half the time.
        assert output.rewards["in_a"].accumulated == pytest.approx(5.0)
        assert output.time_average("in_a") == pytest.approx(0.5)

    def test_warmup_discards_transient(self):
        model = simple_clock_model(period=1.0)
        reward = RewardVariable("in_a", rate=lambda s: float(s.tokens("a")))
        output = Simulator(model).run(until=10.0, warmup=4.0, rewards=[reward])
        assert output.rewards["in_a"].observation_time == pytest.approx(6.0)
        assert output.rewards["in_a"].accumulated == pytest.approx(3.0)

    def test_final_partial_interval_integrated(self):
        model = simple_clock_model(period=4.0)
        reward = RewardVariable("in_a", rate=lambda s: float(s.tokens("a")))
        output = Simulator(model).run(until=2.0, rewards=[reward])
        assert output.rewards["in_a"].accumulated == pytest.approx(2.0)


class TestImpulseRewards:
    def test_impulse_counts_firings(self):
        model = simple_clock_model(period=1.0)
        reward = RewardVariable("go_count", impulses={"go": lambda s, c: 1.0})
        output = Simulator(model).run(until=10.0, rewards=[reward])
        assert output.rewards["go_count"].accumulated == pytest.approx(5.0)

    def test_impulse_respects_warmup(self):
        model = simple_clock_model(period=1.0)
        reward = RewardVariable("go_count", impulses={"go": lambda s, c: 1.0})
        output = Simulator(model).run(until=10.0, warmup=5.0, rewards=[reward])
        # 'go' fires at t = 1, 3, 5, 7, 9; warmup 5 keeps 5, 7, 9.
        assert output.rewards["go_count"].accumulated == pytest.approx(3.0)

    def test_impulse_sees_post_firing_state(self):
        model = SANModel("m")
        a = model.add_place("a", initial=1)
        b = model.add_place("b")
        model.add_activity(
            TimedActivity(
                "move", Deterministic(1.0), input_arcs=[Arc(a)],
                cases=[Case(output_arcs=[Arc(b)])],
            )
        )
        captured = []
        reward = RewardVariable(
            "probe", impulses={"move": lambda s, c: captured.append(s.tokens("b")) or 0.0}
        )
        Simulator(model).run(until=2.0, rewards=[reward])
        assert captured == [1]


class TestReactivation:
    def test_clock_discarded_on_disable(self):
        # 'slow' would fire at t=10 but is disabled at t=1 by 'fast';
        # when re-enabled it must sample a fresh delay, firing at 11+10.
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

        def take_token(state):
            state.place("open").clear()

        def give_token(state):
            state.place("open").set(1)

        model.add_activity(
            TimedActivity(
                "close", Deterministic(1.0), input_arcs=[Arc(toggler)],
                cases=[Case(output_arcs=[Arc(off)],
                            output_gates=[OutputGate("take", take_token)])],
            )
        )
        model.add_activity(
            TimedActivity(
                "reopen", Deterministic(10.0), input_arcs=[Arc(off)],
                cases=[Case(output_gates=[OutputGate("give", give_token)])],
            )
        )
        sink = MemorySink()
        Simulator(model, sink=sink).run(until=30.0)
        slow_times = _times_of(sink, "slow")
        assert slow_times == [pytest.approx(21.0)]

    def test_resample_on_marking_change(self):
        # An exponential whose rate reads a modifier place: when the
        # modifier flips, the activity must resample at the new rate.
        model = SANModel("m")
        modifier = model.add_place("mod")
        fired = model.add_place("fired")

        def rate(state):
            return 1000.0 if state.tokens("mod") else 1e-9

        model.add_activity(
            TimedActivity(
                "event",
                Exponential(rate),
                cases=[Case(output_arcs=[Arc(fired)])],
                input_gates=[
                    InputGate("not_done", predicate=lambda s: s.tokens("fired") == 0)
                ],
                resample_on=["mod"],
            )
        )
        trigger = model.add_place("trigger", initial=1)
        model.add_activity(
            TimedActivity(
                "flip", Deterministic(5.0), input_arcs=[Arc(trigger)],
                cases=[Case(output_arcs=[Arc(modifier)])],
            )
        )
        sink = MemorySink()
        Simulator(model, streams=2, sink=sink).run(until=100.0)
        times = _times_of(sink, "event")
        # Practically impossible before t=5 at rate 1e-9; nearly
        # immediate after the flip at rate 1000.
        assert len(times) == 1
        assert 5.0 <= times[0] < 5.1

    def test_transient_disable_across_cascade_resamples(self):
        # Regression for the recovery-restart scenario: 'kick' clears
        # the stage place; a separate instantaneous activity re-marks
        # it. The stage activity is disabled between the two firings,
        # so its clock must restart (fires at 6 + 10, not at 10).
        model = SANModel("m")
        stage = model.add_place("stage", initial=1)
        kicks = model.add_place("kicks", initial=1)
        redo = model.add_place("redo")
        done = model.add_place("done")
        model.add_activity(
            TimedActivity(
                "stage_work", Deterministic(10.0), input_arcs=[Arc(stage)],
                cases=[Case(output_arcs=[Arc(done)])],
            )
        )

        def drop_stage(state):
            state.place("stage").clear()

        model.add_activity(
            TimedActivity(
                "kick", Deterministic(6.0), input_arcs=[Arc(kicks)],
                cases=[Case(output_arcs=[Arc(redo)],
                            output_gates=[OutputGate("drop", drop_stage)])],
            )
        )
        model.add_activity(
            InstantaneousActivity(
                "restage", input_arcs=[Arc(redo)],
                cases=[Case(output_arcs=[Arc(stage)])],
            )
        )
        sink = MemorySink()
        Simulator(model, sink=sink).run(until=30.0)
        assert _times_of(sink, "stage_work") == [pytest.approx(16.0)]

    def test_atomic_self_replacement_keeps_clock(self):
        # Clearing and re-marking the input place within ONE firing is
        # atomic in SAN semantics: the activity never observes a
        # disabled marking, so its clock persists (fires at 10).
        model = SANModel("m")
        stage = model.add_place("stage", initial=1)
        kicks = model.add_place("kicks", initial=1)
        done = model.add_place("done")
        model.add_activity(
            TimedActivity(
                "stage_work", Deterministic(10.0), input_arcs=[Arc(stage)],
                cases=[Case(output_arcs=[Arc(done)])],
            )
        )

        def clear_and_set(state):
            state.place("stage").clear()
            state.place("stage").set(1)

        model.add_activity(
            TimedActivity(
                "kick", Deterministic(6.0), input_arcs=[Arc(kicks)],
                cases=[Case(output_gates=[OutputGate("cs", clear_and_set)])],
            )
        )
        sink = MemorySink()
        Simulator(model, sink=sink).run(until=30.0)
        assert _times_of(sink, "stage_work") == [pytest.approx(10.0)]


class TestInstantaneous:
    def test_priority_order(self):
        model = SANModel("m")
        token = model.add_place("token", initial=1)
        taken_by = []

        def taker(name):
            def fn(state):
                taken_by.append(name)

            return fn

        for name, priority in (("low", 1), ("high", 9)):
            model.add_activity(
                InstantaneousActivity(
                    name,
                    input_arcs=[Arc(token)],
                    cases=[Case(output_gates=[OutputGate(name, taker(name))])],
                    priority=priority,
                )
            )
        Simulator(model).run(until=1.0)
        assert taken_by == ["high"]

    def test_cascade(self):
        model = SANModel("m")
        a = model.add_place("a", initial=1)
        b = model.add_place("b")
        c = model.add_place("c")
        model.add_activity(
            InstantaneousActivity(
                "ab", input_arcs=[Arc(a)], cases=[Case(output_arcs=[Arc(b)])]
            )
        )
        model.add_activity(
            InstantaneousActivity(
                "bc", input_arcs=[Arc(b)], cases=[Case(output_arcs=[Arc(c)])]
            )
        )
        output = Simulator(model).run(until=1.0)
        assert model.place("c").tokens == 1
        assert output.event_count == 2

    def test_livelock_detected(self):
        model = SANModel("m")
        a = model.add_place("a", initial=1)
        b = model.add_place("b")
        model.add_activity(
            InstantaneousActivity(
                "ab", input_arcs=[Arc(a)], cases=[Case(output_arcs=[Arc(b)])]
            )
        )
        model.add_activity(
            InstantaneousActivity(
                "ba", input_arcs=[Arc(b)], cases=[Case(output_arcs=[Arc(a)])]
            )
        )
        with pytest.raises(SimulationError, match="livelock"):
            Simulator(model).run(until=1.0)


class TestCases:
    def test_case_probabilities_respected(self):
        model = SANModel("m")
        a = model.add_place("a", initial=1)
        heads = model.add_place("heads")
        tails = model.add_place("tails")
        model.add_activity(
            TimedActivity(
                "flip",
                Deterministic(1.0),
                input_arcs=[Arc(a)],
                cases=[
                    Case(output_arcs=[Arc(heads), Arc(a)]),
                    Case(output_arcs=[Arc(tails), Arc(a)]),
                ],
                case_probabilities=[0.8, 0.2],
            )
        )
        Simulator(model, streams=7).run(until=2000.0)
        total = heads.tokens + tails.tokens
        assert total == 2000
        assert heads.tokens / total == pytest.approx(0.8, abs=0.03)

    def test_on_fire_receives_case(self):
        model = SANModel("m")
        a = model.add_place("a", initial=1)
        seen = []
        model.add_activity(
            TimedActivity(
                "act",
                Deterministic(1.0),
                input_arcs=[Arc(a)],
                cases=[Case(output_arcs=[Arc(a)]), Case(output_arcs=[Arc(a)])],
                case_probabilities=[1.0, 0.0],
                on_fire=lambda state, case: seen.append(case),
            )
        )
        Simulator(model).run(until=3.5)
        assert seen == [0, 0, 0]


class TestContextIntegration:
    def test_ctx_integrate_called_over_intervals(self):
        class Ledger:
            def __init__(self):
                self.total = 0.0

            def integrate(self, state, start, end):
                if state.tokens("a"):
                    self.total += end - start

        model = simple_clock_model(period=1.0)
        ledger = Ledger()
        Simulator(model, ctx=ledger).run(until=10.0)
        assert ledger.total == pytest.approx(5.0)

    def test_ctx_reachable_from_gates(self):
        model = SANModel("m")
        a = model.add_place("a", initial=1)
        sink = {"count": 0}

        def bump(state):
            state.ctx["count"] += 1

        model.add_activity(
            TimedActivity(
                "act", Deterministic(1.0), input_arcs=[Arc(a)],
                cases=[Case(output_arcs=[Arc(a)],
                            output_gates=[OutputGate("bump", bump)])],
            )
        )
        Simulator(model, ctx=sink).run(until=5.5)
        assert sink["count"] == 5


def _delay_model(distribution):
    """`bad` fires once per unit of `token`, its delay from `distribution`;
    `fired` counts its firings."""
    model = SANModel("delays")
    token = model.add_place("token", initial=1)
    fired = model.add_place("fired")
    model.add_activity(
        TimedActivity(
            "bad", distribution, input_arcs=[Arc(token)],
            cases=[Case(output_arcs=[Arc(token), Arc(fired)])],
        )
    )
    return model


NAN = float("nan")


@pytest.mark.parametrize("kernel", ["incremental", "full"])
@pytest.mark.parametrize(
    "distribution",
    [
        pytest.param(Deterministic(lambda s: NAN), id="nan-at-start"),
        pytest.param(Exponential(lambda s: NAN), id="nan-rate-at-start"),
        pytest.param(
            Deterministic(lambda s: NAN if s.tokens("fired") else 1.0),
            id="nan-after-first-firing",
        ),
    ],
)
def test_nan_delay_raises_naming_the_activity(kernel, distribution):
    """A callable parameter that resolves to NaN is caught where the
    delay is scheduled, at the run start and inside the event loop,
    instead of firing the activity at time NaN (which never ends the
    run: the budget turns a regression into a failure, not a hang)."""
    simulator = Simulator(_delay_model(distribution), kernel=kernel)
    with pytest.raises(SimulationError, match="'bad'.*nan"):
        simulator.run(until=10.0, wall_clock_budget=5.0)


@pytest.mark.parametrize("kernel", ["incremental", "full"])
def test_infinite_delay_never_fires(kernel):
    output = Simulator(
        _delay_model(Deterministic(float("inf"))), kernel=kernel
    ).run(until=10.0)
    assert output.event_count == 0
    assert output.final_time == 10.0
