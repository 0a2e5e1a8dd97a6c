"""Tests for the simulation driver and its plan."""

from dataclasses import fields

import pytest

from repro.core import (
    HOUR,
    YEAR,
    ModelParameters,
    SimulationPlan,
    simulate,
)

QUICK = SimulationPlan(warmup=5 * HOUR, observation=60 * HOUR, replications=2)


class TestSimulationPlan:
    def test_defaults(self):
        plan = SimulationPlan()
        assert plan.replications == 3
        assert plan.horizon == plan.warmup + plan.observation

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"warmup": -1.0},
            {"observation": 0.0},
            {"replications": 0},
            {"wall_clock_budget": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimulationPlan(**kwargs)

    @pytest.mark.parametrize("name", ["kernel", "confidence", "batch_size"])
    def test_removed_fields_are_type_errors(self, name):
        # The backend id chooses the kernel and every interval is a 95%
        # one; the batched kernel is gone. Five fields remain.
        with pytest.raises(TypeError, match=name):
            SimulationPlan(**{name: None})
        assert len(fields(SimulationPlan)) == 5


class TestSimulate:
    def test_result_structure(self):
        result = simulate(ModelParameters(), QUICK, seed=1)
        assert result.useful_work_fraction.samples == 2
        assert len(result.samples) == 2
        assert len(result.event_counts) == 2
        assert result.counters is not None
        assert set(result.breakdown) >= {
            "frac_execution",
            "frac_checkpointing",
            "frac_recovering",
            "frac_rebooting",
            "frac_corr_window",
        }

    def test_total_useful_work_scaling(self):
        result = simulate(ModelParameters(), QUICK, seed=1)
        assert result.total_useful_work.mean == pytest.approx(
            result.useful_work_fraction.mean * 65536
        )

    def test_reproducible(self):
        a = simulate(ModelParameters(), QUICK, seed=9)
        b = simulate(ModelParameters(), QUICK, seed=9)
        assert a.useful_work_fraction.mean == b.useful_work_fraction.mean

    def test_replications_are_independent(self):
        result = simulate(ModelParameters(mttf_node=0.5 * YEAR), QUICK, seed=2)
        assert result.samples[0] != result.samples[1]

    def test_fraction_in_unit_interval(self):
        result = simulate(ModelParameters(), QUICK, seed=3)
        assert 0.0 < result.useful_work_fraction.mean <= 1.0

    def test_summary_readable(self):
        result = simulate(ModelParameters(), QUICK, seed=1)
        text = result.summary()
        assert "UWF" in text and "65536" in text
