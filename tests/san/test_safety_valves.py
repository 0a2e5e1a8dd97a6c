"""Tests for the executive guard rails: livelock safety valves,
wall-clock budgets, and invariant hooks."""

import pickle

import pytest

from repro.san import (
    Arc,
    Case,
    Deterministic,
    Exponential,
    InstantaneousActivity,
    InvariantViolationError,
    LivelockError,
    OutputGate,
    SANModel,
    SimulationError,
    Simulator,
    TimedActivity,
    WallClockExceededError,
    monotone_nondecreasing,
    non_negative_markings,
)


def instantaneous_livelock_model():
    """An instantaneous activity that re-enables itself forever."""
    model = SANModel("inst-livelock")
    fuel = model.add_place("fuel", initial=1)
    model.add_activity(
        InstantaneousActivity(
            "spin", input_arcs=[Arc(fuel)], cases=[Case(output_arcs=[Arc(fuel)])]
        )
    )
    return model


def zero_delay_livelock_model():
    """A zero-delay timed activity that re-enables itself forever."""
    model = SANModel("zero-delay-livelock")
    fuel = model.add_place("fuel", initial=1)
    model.add_activity(
        TimedActivity(
            "tick",
            Deterministic(0.0),
            input_arcs=[Arc(fuel)],
            cases=[Case(output_arcs=[Arc(fuel)])],
        )
    )
    return model


def looping_model(rate=1.0):
    """A healthy exponential self-loop (for budget/invariant tests)."""
    model = SANModel("loop")
    token = model.add_place("token", initial=1)
    model.add_activity(
        TimedActivity(
            "loop",
            Exponential(rate),
            input_arcs=[Arc(token)],
            cases=[Case(output_arcs=[Arc(token)])],
        )
    )
    return model


class TestInstantaneousChainValve:
    def test_raises_structured_livelock_error(self):
        simulator = Simulator(
            instantaneous_livelock_model(), max_instantaneous_chain=50
        )
        with pytest.raises(LivelockError) as excinfo:
            simulator.run(until=1.0)
        error = excinfo.value
        assert error.kind == "instantaneous"
        assert error.activity == "spin"
        assert error.fired == 51
        assert error.marking["fuel"] == 1
        assert "spin" in str(error)
        assert "fuel=1" in str(error)

    def test_is_a_simulation_error(self):
        simulator = Simulator(
            instantaneous_livelock_model(), max_instantaneous_chain=10
        )
        with pytest.raises(SimulationError):
            simulator.run(until=1.0)


class TestEventsPerInstantValve:
    def test_raises_structured_livelock_error(self):
        simulator = Simulator(
            zero_delay_livelock_model(), max_events_per_instant=40
        )
        with pytest.raises(LivelockError) as excinfo:
            simulator.run(until=1.0)
        error = excinfo.value
        assert error.kind == "zero-delay"
        assert error.activity == "tick"
        assert error.time == 0.0
        assert error.marking["fuel"] == 1
        assert "tick" in str(error)

    def test_valve_parameters_validated(self):
        with pytest.raises(SimulationError):
            Simulator(looping_model(), max_instantaneous_chain=0)
        with pytest.raises(SimulationError):
            Simulator(looping_model(), max_events_per_instant=0)


class TestWallClockBudget:
    def test_budget_exceeded_raises_with_state_dump(self):
        simulator = Simulator(looping_model(rate=1.0))
        with pytest.raises(WallClockExceededError) as excinfo:
            simulator.run(until=1e9, wall_clock_budget=1e-9)
        error = excinfo.value
        assert error.budget == 1e-9
        assert error.elapsed > 0
        assert "token" in error.marking
        assert "wall-clock budget" in str(error)

    def test_budget_validated(self):
        simulator = Simulator(looping_model())
        with pytest.raises(SimulationError):
            simulator.run(until=1.0, wall_clock_budget=0.0)
        with pytest.raises(SimulationError, match="wall_clock_budget"):
            simulator.run(until=1.0, wall_clock_budget=float("nan"))

    def test_generous_budget_is_harmless(self):
        output = Simulator(looping_model()).run(
            until=5.0, wall_clock_budget=3600.0
        )
        assert output.final_time == 5.0


class TestInvariantHooks:
    def test_violation_names_hook_and_dumps_state(self):
        model = SANModel("corruptor")
        token = model.add_place("token", initial=1)

        def corrupt(state):
            state.place("token").tokens = -3

        model.add_activity(
            TimedActivity(
                "corrupt",
                Deterministic(1.0),
                input_arcs=[Arc(token)],
                cases=[Case(output_arcs=[Arc(token), ],
                            output_gates=[OutputGate("og_corrupt", corrupt)])],
            )
        )
        simulator = Simulator(model)
        with pytest.raises(InvariantViolationError) as excinfo:
            simulator.run(until=10.0, invariants=[non_negative_markings])
        error = excinfo.value
        assert error.invariant == "non_negative_markings"
        assert "token" in error.detail
        assert error.time == pytest.approx(1.0)
        assert error.marking["token"] == -3

    def test_satisfied_invariant_is_silent(self):
        output = Simulator(looping_model()).run(
            until=5.0, invariants=[non_negative_markings]
        )
        assert output.final_time == 5.0

    def test_monotone_invariant(self):
        model = SANModel("drain")
        bucket = model.add_place("bucket", initial=5)
        model.add_activity(
            TimedActivity(
                "drain", Deterministic(1.0), input_arcs=[Arc(bucket)]
            )
        )
        watcher = monotone_nondecreasing(
            lambda state: state.tokens("bucket"), "bucket level"
        )
        with pytest.raises(InvariantViolationError) as excinfo:
            Simulator(model).run(until=10.0, invariants=[watcher])
        assert "bucket level decreased" in excinfo.value.detail
        assert "monotone_nondecreasing" in excinfo.value.invariant


class TestErrorPickling:
    """Structured errors cross process boundaries in sweep workers."""

    def test_livelock_error_roundtrip(self):
        error = LivelockError(
            "instantaneous", "spin", 42, time=1.5, marking={"fuel": 1}
        )
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, LivelockError)
        assert clone.activity == "spin"
        assert clone.fired == 42
        assert clone.marking == {"fuel": 1}
        assert str(clone) == str(error)

    def test_invariant_error_roundtrip(self):
        error = InvariantViolationError(
            "non_negative_markings", "place 'a' holds -1 tokens",
            time=2.0, marking={"a": -1},
        )
        clone = pickle.loads(pickle.dumps(error))
        assert clone.invariant == "non_negative_markings"
        assert clone.marking == {"a": -1}
