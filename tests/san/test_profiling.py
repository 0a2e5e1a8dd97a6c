"""Tests for the kernel instrumentation (:mod:`repro.san.profiling`)."""

import json

import pytest

from repro.san import (
    Arc,
    Case,
    Deterministic,
    OutputGate,
    SANModel,
    Simulator,
    TimedActivity,
)
from repro.san.profiling import (
    KernelStats,
    aggregated,
    disable_aggregation,
    enable_aggregation,
    record,
)


def clock_model(period=1.0):
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


class TestKernelStats:
    def test_derived_rates(self):
        stats = KernelStats(events=100, wall_seconds=2.0)
        assert stats.events_per_sec == pytest.approx(50.0)
        stats = KernelStats(enabled_checks=25, enabled_checks_skipped=75)
        assert stats.check_efficiency == pytest.approx(0.75)

    def test_derived_rates_empty(self):
        stats = KernelStats()
        assert stats.events_per_sec == 0.0
        assert stats.check_efficiency == 0.0

    def test_merge_accumulates(self):
        total = KernelStats(kernel="incremental", runs=0)
        total.merge(
            KernelStats(
                kernel="incremental",
                events=10,
                wall_seconds=1.0,
                heap_pushes=5,
                max_stabilisation_chain=2,
                deferred_firings=6,
            )
        )
        total.merge(
            KernelStats(
                kernel="incremental",
                events=30,
                wall_seconds=3.0,
                heap_pushes=7,
                max_stabilisation_chain=4,
                deferred_firings=20,
            )
        )
        assert total.runs == 2
        assert total.events == 40
        assert total.wall_seconds == pytest.approx(4.0)
        assert total.heap_pushes == 12
        assert total.deferred_firings == 26
        # Extrema merge by max, not sum.
        assert total.max_stabilisation_chain == 4
        assert total.kernel == "incremental"

    def test_merge_mixed_kernels(self):
        total = KernelStats(kernel="incremental")
        total.merge(KernelStats(kernel="full"))
        assert total.kernel == "mixed"

    def test_as_dict_is_json_serialisable(self):
        stats = KernelStats(kernel="incremental", events=7, wall_seconds=0.5)
        data = json.loads(json.dumps(stats.as_dict()))
        assert data["events"] == 7
        assert data["events_per_sec"] == pytest.approx(14.0)
        assert "check_efficiency" in data

    def test_summary_mentions_headline_numbers(self):
        stats = KernelStats(
            kernel="incremental",
            events=1000,
            wall_seconds=1.0,
            enabled_checks=10,
            enabled_checks_skipped=90,
            deferred_firings=750,
        )
        text = stats.summary()
        assert "incremental" in text
        assert "1,000 events/s" in text
        assert "90.0% avoided" in text
        assert "deferred: 750 firings replayed outside the cascade" in text


class TestAggregation:
    def teardown_method(self):
        disable_aggregation()

    def test_record_is_noop_when_disabled(self):
        disable_aggregation()
        record(KernelStats(events=5))
        assert aggregated() is None

    def test_enable_record_aggregate(self):
        enable_aggregation()
        assert aggregated().runs == 0
        record(KernelStats(kernel="incremental", events=5, wall_seconds=1.0))
        record(KernelStats(kernel="incremental", events=7, wall_seconds=1.0))
        total = aggregated()
        assert total.runs == 2
        assert total.events == 12

    def test_enable_resets_by_default(self):
        enable_aggregation()
        record(KernelStats(events=5))
        enable_aggregation()
        assert aggregated().events == 0
        # reset=False keeps the running total.
        record(KernelStats(events=3))
        enable_aggregation(reset=False)
        assert aggregated().events == 3


class TestSimulatorIntegration:
    @pytest.mark.parametrize("kernel", ["incremental", "full"])
    def test_run_reports_stats(self, kernel):
        output = Simulator(clock_model(), kernel=kernel).run(until=10.0)
        stats = output.kernel_stats
        assert stats.kernel == kernel
        assert stats.events == output.event_count == 10
        assert stats.wall_seconds > 0.0
        assert stats.heap_pushes >= 10
        assert stats.resamples >= 10

    @staticmethod
    def _two_independent_clocks():
        """Two token loops sharing no places: firing one clock's
        activity cannot affect the other clock, so the dependency
        index skips the other pair on every event. A gate function
        pokes a side place by name, exercising the dirty-sink path."""
        model = SANModel("pair")
        counter = model.add_place("counter")

        def bump(state):
            state.place("counter").add(1)

        for tag, period in (("x", 1.0), ("y", 0.7)):
            a = model.add_place(f"{tag}_a", initial=1)
            b = model.add_place(f"{tag}_b")
            model.add_activity(
                TimedActivity(
                    f"{tag}_go", Deterministic(period), input_arcs=[Arc(a)],
                    cases=[Case(output_arcs=[Arc(b)],
                                output_gates=[OutputGate(f"{tag}_bump", bump)])],
                )
            )
            model.add_activity(
                TimedActivity(
                    f"{tag}_back", Deterministic(period), input_arcs=[Arc(b)],
                    cases=[Case(output_arcs=[Arc(a)])],
                )
            )
        return model

    def test_incremental_skips_full_does_not(self):
        inc = Simulator(self._two_independent_clocks(),
                        kernel="incremental").run(until=100.0)
        full = Simulator(self._two_independent_clocks(),
                         kernel="full").run(until=100.0)
        assert inc.event_count == full.event_count
        # Four activities, two affected per firing: the index skips
        # the other clock's pair; the full kernel re-checks everything.
        assert inc.kernel_stats.enabled_checks_skipped > 0
        assert inc.kernel_stats.dirty_notifications > 0
        assert full.kernel_stats.enabled_checks_skipped == 0
        assert full.kernel_stats.dirty_notifications == 0
        assert full.kernel_stats.enabled_checks > inc.kernel_stats.enabled_checks
