"""Tests for the analytical baselines (Young, Daly, the renewal
predictor)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytical import daly, useful_work, young
from repro.core import HOUR, MINUTE, YEAR


class TestYoung:
    def test_classic_formula(self):
        assert young.optimal_interval(60.0, 3600.0) == pytest.approx(
            math.sqrt(2 * 60 * 3600)
        )

    def test_waste_components(self):
        # interval τ=1000, overhead 100: checkpoint share 100/1100;
        # rework (500 + 60) / mtbf.
        waste = young.waste_fraction(1000.0, 100.0, 100000.0, mttr=60.0)
        assert waste == pytest.approx(100 / 1100 + 560 / 100000)

    def test_waste_capped_at_one(self):
        assert young.waste_fraction(10000.0, 1.0, 100.0) == 1.0

    def test_useful_is_complement(self):
        interval, overhead, mtbf = 900.0, 57.0, 3852.0
        assert young.useful_fraction(interval, overhead, mtbf) == pytest.approx(
            1 - young.waste_fraction(interval, overhead, mtbf)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            young.optimal_interval(0.0, 100.0)
        with pytest.raises(ValueError):
            young.optimal_interval(1.0, -1.0)
        with pytest.raises(ValueError):
            young.waste_fraction(0.0, 1.0, 100.0)

    @given(
        st.floats(min_value=1.0, max_value=1e3),
        st.floats(min_value=1e6, max_value=1e9),
    )
    @settings(max_examples=60)
    def test_optimum_minimises_waste_first_order(self, overhead, mtbf):
        # Young's sqrt(2*delta*M) is the exact optimum of the
        # first-order waste delta/tau + tau/(2M); in the regime Young
        # assumed (overhead << MTBF) it must also beat clearly worse
        # intervals of the full waste expression.
        optimum = young.optimal_interval(overhead, mtbf)
        best = young.waste_fraction(optimum, overhead, mtbf)
        for factor in (0.25, 4.0):
            assert best <= young.waste_fraction(optimum * factor, overhead, mtbf) + 1e-12


class TestDaly:
    def test_total_time_exceeds_solve_time(self):
        total = daly.expected_total_time(3600.0, 900.0, 60.0, 600.0, 4000.0)
        assert total > 3600.0

    def test_failure_free_limit(self):
        # With a huge MTBF the model reduces to pure overhead.
        fraction = daly.useful_fraction(900.0, 60.0, 600.0, 1e12)
        assert fraction == pytest.approx(900.0 / 960.0, rel=1e-4)

    def test_optimum_close_to_young_for_small_overhead(self):
        overhead, mtbf = 1.0, 1e6
        assert daly.optimal_interval(overhead, mtbf) == pytest.approx(
            young.optimal_interval(overhead, mtbf), rel=0.01
        )

    def test_optimum_saturates_at_mtbf(self):
        assert daly.optimal_interval(500.0, 100.0) == 100.0

    def test_optimum_is_optimal(self):
        overhead, restart, mtbf = 57.0, 600.0, 3852.0
        optimum = daly.optimal_interval(overhead, mtbf)
        best = daly.useful_fraction(optimum, overhead, restart, mtbf)
        for factor in (0.6, 0.8, 1.3, 1.8):
            other = daly.useful_fraction(optimum * factor, overhead, restart, mtbf)
            assert best >= other - 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            daly.expected_total_time(0.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            daly.expected_total_time(1.0, 1.0, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            daly.optimal_interval(0.0, 1.0)


class TestRenewalPredictor:
    def test_failure_free_limit(self):
        fraction = useful_work.useful_work_fraction(1800.0, 57.0, 1e18, 600.0)
        assert fraction == pytest.approx(1800.0 / 1857.0, rel=1e-3)

    def test_matches_hand_computation(self):
        # The 128K-processor head calculation used throughout: M = 1yr
        # per node / 16384 nodes, tau 30 min, delta 57 s, R 10 min.
        mtbf = YEAR / 16384
        fraction = useful_work.useful_work_fraction(
            30 * MINUTE, 57.0, mtbf, 10 * MINUTE
        )
        assert fraction == pytest.approx(0.44, abs=0.01)

    def test_survival_probability(self):
        p = useful_work.segment_survival_probability(1800.0, 57.0, 3600.0)
        assert p == pytest.approx(math.exp(-1857.0 / 3600.0))

    def test_total_useful_work_has_interior_optimum(self):
        candidates = [2**k for k in range(13, 19)]
        values = [
            useful_work.total_useful_work(n, 8, YEAR, 1800.0, 57.0, 600.0)
            for n in candidates
        ]
        peak = values.index(max(values))
        assert 0 < peak < len(values) - 1

    def test_optimal_processors_matches_paper(self):
        optimum = useful_work.optimal_processors(
            processors_per_node=8,
            mttf_node=YEAR,
            interval=30 * MINUTE,
            overhead=57.0,
            mttr=10 * MINUTE,
            candidates=[2**k for k in range(13, 19)],
        )
        assert optimum == 131072  # the paper's 128K

    def test_optimum_shrinks_with_mttr(self):
        def optimum(mttr):
            return useful_work.optimal_processors(
                8, YEAR, 30 * MINUTE, 57.0, mttr,
                candidates=[2**k for k in range(13, 19)],
            )

        assert optimum(80 * MINUTE) <= optimum(10 * MINUTE)

    @given(
        st.floats(min_value=300.0, max_value=7200.0),
        st.floats(min_value=1.0, max_value=300.0),
        st.floats(min_value=600.0, max_value=1e7),
        st.floats(min_value=0.0, max_value=3600.0),
    )
    @settings(max_examples=100)
    def test_fraction_in_unit_interval(self, interval, overhead, mtbf, mttr):
        fraction = useful_work.useful_work_fraction(interval, overhead, mtbf, mttr)
        assert 0.0 <= fraction <= 1.0
