"""Tests for output-analysis statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.san import (
    ConfidenceInterval,
    RunningStatistics,
    StreamRegistry,
    confidence_interval,
    replicate,
    t_critical,
)


class TestRunningStatistics:
    def test_matches_numpy(self):
        values = [3.0, 1.5, -2.0, 7.25, 0.0, 4.5]
        stats = RunningStatistics()
        stats.extend(values)
        assert stats.mean == pytest.approx(np.mean(values))
        assert stats.variance == pytest.approx(np.var(values, ddof=1))
        assert stats.stddev == pytest.approx(np.std(values, ddof=1))

    def test_min_max(self):
        stats = RunningStatistics()
        stats.extend([2.0, -1.0, 5.0])
        assert stats.minimum == -1.0
        assert stats.maximum == 5.0

    def test_empty(self):
        stats = RunningStatistics()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.variance == 0.0

    def test_single_value(self):
        stats = RunningStatistics()
        stats.update(4.0)
        assert stats.mean == 4.0
        assert stats.variance == 0.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=60))
    @settings(max_examples=80)
    def test_welford_property(self, values):
        stats = RunningStatistics()
        stats.extend(values)
        assert stats.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-9)
        assert stats.variance == pytest.approx(
            np.var(values, ddof=1), rel=1e-6, abs=1e-6
        )


class TestConfidenceInterval:
    def test_single_sample(self):
        ci = confidence_interval([5.0])
        assert ci.mean == 5.0
        assert ci.half_width == 0.0
        assert ci.samples == 1

    def test_known_t_value(self):
        # n=4, 95%: t_{0.975,3} = 3.1824.
        values = [1.0, 2.0, 3.0, 4.0]
        ci = confidence_interval(values)
        expected = 3.182446 * np.std(values, ddof=1) / 2.0
        assert ci.half_width == pytest.approx(expected, rel=1e-4)

    def test_bounds_and_contains(self):
        ci = ConfidenceInterval(mean=10.0, half_width=2.0, confidence=0.95, samples=5)
        assert ci.low == 8.0
        assert ci.high == 12.0
        assert ci.contains(9.0)
        assert not ci.contains(12.5)

    def test_relative_half_width(self):
        ci = ConfidenceInterval(4.0, 1.0, 0.95, 3)
        assert ci.relative_half_width == 0.25
        zero = ConfidenceInterval(0.0, 1.0, 0.95, 3)
        assert math.isinf(zero.relative_half_width)

    def test_validation(self):
        with pytest.raises(ValueError):
            confidence_interval([], 0.95)
        with pytest.raises(ValueError):
            confidence_interval([1.0], confidence=1.5)

    def test_coverage_simulation(self):
        # ~95% of intervals over normal samples must contain the mean.
        rng = StreamRegistry(0).get("test/statistics")
        hits = 0
        trials = 400
        for _ in range(trials):
            sample = rng.normal(10.0, 3.0, size=10)
            if confidence_interval(list(sample)).contains(10.0):
                hits += 1
        assert hits / trials == pytest.approx(0.95, abs=0.04)


class TestReplicate:
    def test_aggregates_measures(self):
        def run_once(index):
            return {"a": float(index), "b": 2.0}

        intervals = replicate(run_once, replications=5)
        assert intervals["a"].mean == pytest.approx(2.0)
        assert intervals["a"].samples == 5
        assert intervals["b"].half_width == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            replicate(lambda i: {}, replications=0)


class TestIntervalValidation:
    """n=1 intervals are flagged unvalidated, not silently exact."""

    def test_single_sample_is_unvalidated(self):
        ci = confidence_interval([5.0])
        assert ci.samples == 1
        assert ci.half_width == 0.0
        assert ci.validated is False

    def test_multi_sample_is_validated(self):
        ci = confidence_interval([1.0, 2.0, 3.0])
        assert ci.validated is True

    def test_default_construction_is_validated(self):
        # Positional construction (the prevailing idiom) stays valid.
        ci = ConfidenceInterval(10.0, 2.0, 0.95, 5)
        assert ci.validated is True

    def test_str_marks_unvalidated(self):
        assert "unvalidated" in str(confidence_interval([5.0]))
        assert "unvalidated" not in str(confidence_interval([1.0, 2.0]))


def test_t_critical_is_scipy_t_ppf_bit_for_bit():
    """``t_critical`` calls the inverse Student-t CDF that
    ``scipy.stats.t.ppf`` calls, without importing ``scipy.stats``:
    over the whole grid the values, and so every interval half-width,
    are the same floats."""
    from scipy import stats

    confidences = [0.8 + k / 1000.0 for k in range(200)] + [0.95, 0.99, 0.999]
    dfs = np.arange(1, 200)
    for confidence in confidences:
        expected = stats.t.ppf(0.5 + confidence / 2.0, df=dfs)
        got = [t_critical(confidence, int(df)) for df in dfs]
        assert got == [float(value) for value in expected], confidence
