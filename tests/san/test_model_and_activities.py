"""Tests for repro.san.model, activities and gates."""

import pytest

from repro.san import (
    Arc,
    Case,
    Deterministic,
    Exponential,
    InputGate,
    InstantaneousActivity,
    OutputGate,
    SANModel,
    TimedActivity,
)
from repro.san.errors import ModelDefinitionError


def make_model():
    model = SANModel("m")
    a = model.add_place("a", initial=1)
    b = model.add_place("b")
    return model, a, b


class TestArcAndCase:
    def test_arc_weight_validated(self):
        _, a, _ = make_model()
        with pytest.raises(ModelDefinitionError):
            Arc(a, weight=0)

    def test_case_defaults_empty(self):
        case = Case()
        assert case.output_arcs == ()
        assert case.output_gates == ()


class TestActivityValidation:
    def test_needs_name(self):
        with pytest.raises(ModelDefinitionError):
            TimedActivity("", Exponential(1.0))

    def test_multiple_cases_need_probabilities(self):
        with pytest.raises(ModelDefinitionError):
            TimedActivity("t", Exponential(1.0), cases=[Case(), Case()])

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ModelDefinitionError):
            TimedActivity(
                "t",
                Exponential(1.0),
                cases=[Case(), Case()],
                case_probabilities=[0.5, 0.4],
            )

    def test_probability_count_must_match(self):
        with pytest.raises(ModelDefinitionError):
            TimedActivity(
                "t",
                Exponential(1.0),
                cases=[Case(), Case()],
                case_probabilities=[1.0],
            )

    def test_negative_probability_rejected(self):
        with pytest.raises(ModelDefinitionError):
            TimedActivity(
                "t",
                Exponential(1.0),
                cases=[Case(), Case()],
                case_probabilities=[1.5, -0.5],
            )

    def test_callable_probabilities_accepted(self):
        activity = TimedActivity(
            "t",
            Exponential(1.0),
            cases=[Case(), Case()],
            case_probabilities=lambda state: [0.5, 0.5],
        )
        assert len(activity.cases) == 2

    def test_timed_requires_distribution(self):
        with pytest.raises(ModelDefinitionError):
            TimedActivity("t", distribution="not a distribution")

    def test_instantaneous_priority(self):
        activity = InstantaneousActivity("i", priority=5)
        assert activity.priority == 5


class TestEnabling:
    def test_arc_enabling(self):
        model, a, b = make_model()
        activity = TimedActivity("t", Exponential(1.0), input_arcs=[Arc(a)])
        model.add_activity(activity)
        from repro.san.simulator import SimulationState

        state = SimulationState(model)
        assert activity.enabled(state)
        a.remove(1)
        assert not activity.enabled(state)

    def test_weighted_arc(self):
        model, a, _ = make_model()
        activity = TimedActivity("t", Exponential(1.0), input_arcs=[Arc(a, weight=2)])
        model.add_activity(activity)
        from repro.san.simulator import SimulationState

        state = SimulationState(model)
        assert not activity.enabled(state)
        a.add(1)
        assert activity.enabled(state)

    def test_gate_predicate(self):
        model, a, b = make_model()
        gate = InputGate("g", predicate=lambda s: s.tokens("b") > 0)
        activity = TimedActivity("t", Exponential(1.0), input_gates=[gate])
        model.add_activity(activity)
        from repro.san.simulator import SimulationState

        state = SimulationState(model)
        assert not activity.enabled(state)
        b.add(1)
        assert activity.enabled(state)


class TestGates:
    def test_input_gate_validation(self):
        with pytest.raises(ModelDefinitionError):
            InputGate("", predicate=lambda s: True)
        with pytest.raises(ModelDefinitionError):
            InputGate("g", predicate="nope")
        with pytest.raises(ModelDefinitionError):
            InputGate("g", predicate=lambda s: True, function="nope")

    def test_output_gate_validation(self):
        with pytest.raises(ModelDefinitionError):
            OutputGate("", lambda s: None)
        with pytest.raises(ModelDefinitionError):
            OutputGate("g", "nope")


class TestSANModel:
    def test_shared_place_by_name(self):
        model = SANModel("m")
        first = model.add_place("shared", initial=1)
        second = model.add_place("shared")
        assert first is second

    def test_conflicting_initials_rejected(self):
        model = SANModel("m")
        model.add_place("p", initial=1)
        with pytest.raises(ModelDefinitionError):
            model.add_place("p", initial=2)

    def test_same_initial_ok(self):
        model = SANModel("m")
        model.add_place("p", initial=1)
        assert model.add_place("p", initial=1).initial == 1

    def test_duplicate_activity_rejected(self):
        model, a, _ = make_model()
        model.add_activity(TimedActivity("t", Exponential(1.0), input_arcs=[Arc(a)]))
        with pytest.raises(ModelDefinitionError):
            model.add_activity(TimedActivity("t", Exponential(1.0)))

    def test_unknown_lookups_raise(self):
        model = SANModel("m")
        with pytest.raises(ModelDefinitionError):
            model.place("missing")
        with pytest.raises(ModelDefinitionError):
            model.activity("missing")

    def test_instantaneous_ordering_by_priority(self):
        model = SANModel("m")
        low = InstantaneousActivity("low", priority=1)
        high = InstantaneousActivity("high", priority=9)
        model.add_activity(low)
        model.add_activity(high)
        assert [a.name for a in model.instantaneous_activities] == ["high", "low"]

    def test_definition_order_breaks_priority_ties(self):
        model = SANModel("m")
        model.add_activity(InstantaneousActivity("first", priority=1))
        model.add_activity(InstantaneousActivity("second", priority=1))
        assert [a.name for a in model.instantaneous_activities] == ["first", "second"]

    def test_validate_detects_foreign_place(self):
        model = SANModel("m")
        foreign = SANModel("other").add_place("f", initial=1)
        model.add_activity(
            TimedActivity("t", Exponential(1.0), input_arcs=[Arc(foreign)])
        )
        with pytest.raises(ModelDefinitionError):
            model.validate()

    def test_validate_detects_unknown_resample_place(self):
        model, a, _ = make_model()
        model.add_activity(
            TimedActivity(
                "t", Exponential(1.0), input_arcs=[Arc(a)], resample_on=["ghost"]
            )
        )
        with pytest.raises(ModelDefinitionError):
            model.validate()

    def test_validate_warns_untouched_place(self):
        model = SANModel("m")
        model.add_place("lonely")
        warnings = model.validate()
        assert any("lonely" in warning for warning in warnings)

    def test_marking_roundtrip(self):
        model, a, b = make_model()
        b.add(4)
        vector = model.marking_vector()
        a.clear()
        b.clear()
        model.set_marking_vector(vector)
        assert model.marking() == {"a": 1, "b": 4}

    def test_marking_vector_length_checked(self):
        model, _, _ = make_model()
        with pytest.raises(ModelDefinitionError):
            model.set_marking_vector([1])

    def test_reset(self):
        model, a, b = make_model()
        a.add(5)
        b.add(2)
        model.reset()
        assert a.tokens == 1
        assert b.tokens == 0

    def test_submodel_registry(self):
        model, a, _ = make_model()
        model.add_activity(
            TimedActivity("t", Exponential(1.0), input_arcs=[Arc(a)]),
            submodel="group1",
        )
        assert model.submodel_activities("group1") == ("t",)
        assert "group1" in model.submodels

    def test_compose_chains(self):
        def builder(model):
            model.add_place("built")

        model = SANModel("m").compose(builder)
        assert model.has_place("built")
