"""Tests for the cross-backend comparison statistics."""

import math

import pytest
from scipy import stats as scipy_stats

from repro.san.statistics import (
    ConfidenceInterval,
    confidence_interval,
    standard_error_of,
    t_critical,
)
from repro.validate.stats import (
    AGREE,
    DISAGREE,
    INCONCLUSIVE,
    SampleSummary,
    TolerancePolicy,
    compare_summaries,
    welch_statistic,
)


def sampled(mean, half_width=0.01, n=10, validated=True):
    return SampleSummary(
        mean=mean, half_width=half_width, samples=n, validated=validated
    )


class TestSanStatisticsHelpers:
    def test_t_critical_matches_scipy(self):
        assert t_critical(0.95, 9) == pytest.approx(
            scipy_stats.t.ppf(0.975, df=9)
        )

    def test_t_critical_validation(self):
        with pytest.raises(ValueError):
            t_critical(1.5, 9)
        with pytest.raises(ValueError):
            t_critical(0.95, 0)

    def test_standard_error_inverts_half_width(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        interval = confidence_interval(values)
        se = standard_error_of(interval)
        # half_width = t* x se by construction
        assert se * t_critical(0.95, 4) == pytest.approx(interval.half_width)

    def test_standard_error_refuses_unvalidated(self):
        one = ConfidenceInterval(1.0, 0.0, 0.95, 1, validated=False)
        with pytest.raises(ValueError):
            standard_error_of(one)


class TestSampleSummary:
    def test_exact_value(self):
        exact = SampleSummary.exact_value(0.9)
        assert exact.exact
        assert exact.standard_error == 0.0

    def test_from_interval_round_trip(self):
        interval = confidence_interval([0.9, 0.91, 0.92, 0.93])
        summary = SampleSummary.from_interval(interval)
        assert summary.mean == interval.mean
        assert summary.samples == 4
        assert summary.to_interval().half_width == pytest.approx(
            interval.half_width
        )

    def test_unvalidated_summary_hides_standard_error(self):
        assert sampled(0.9, n=1, validated=False).standard_error is None
        assert sampled(0.9, n=1).standard_error is None


class TestTolerancePolicy:
    def test_band_is_max_of_abs_and_rel(self):
        policy = TolerancePolicy(rel_tolerance=0.1, abs_tolerance=0.02)
        assert policy.band(1.0, 0.5) == pytest.approx(0.1)
        assert policy.band(0.1, 0.05) == pytest.approx(0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            TolerancePolicy(alpha=0.0)
        with pytest.raises(ValueError):
            TolerancePolicy(rel_tolerance=-0.1)


class TestWelch:
    def test_matches_scipy_from_stats(self):
        a, b = sampled(0.95, 0.01, 10), sampled(0.94, 0.02, 8)
        t, df, p = welch_statistic(a, b)
        expected = scipy_stats.ttest_ind_from_stats(
            a.mean, a.standard_error * math.sqrt(a.samples), a.samples,
            b.mean, b.standard_error * math.sqrt(b.samples), b.samples,
            equal_var=False,
        )
        assert t == pytest.approx(float(expected.statistic))
        assert p == pytest.approx(float(expected.pvalue))

    def test_zero_variance_identical_means(self):
        a = sampled(0.9, half_width=0.0, n=5)
        t, _, p = welch_statistic(a, sampled(0.9, half_width=0.0, n=5))
        assert t == 0.0 and p == 1.0

    def test_zero_variance_different_means(self):
        a = sampled(0.9, half_width=0.0, n=5)
        t, _, p = welch_statistic(a, sampled(0.8, half_width=0.0, n=5))
        assert math.isinf(t) and p == 0.0

    def test_requires_standard_errors(self):
        with pytest.raises(ValueError):
            welch_statistic(sampled(0.9, n=1), sampled(0.9))


class TestCompareSummaries:
    POLICY = TolerancePolicy(alpha=0.01, rel_tolerance=0.0, abs_tolerance=0.02)

    def test_exact_vs_exact_inside_band(self):
        comparison = compare_summaries(
            SampleSummary.exact_value(0.95),
            SampleSummary.exact_value(0.94),
            self.POLICY,
        )
        assert comparison.verdict == AGREE
        assert comparison.method == "exact-difference"

    def test_exact_vs_exact_outside_band(self):
        comparison = compare_summaries(
            SampleSummary.exact_value(0.95),
            SampleSummary.exact_value(0.90),
            self.POLICY,
        )
        assert comparison.verdict == DISAGREE
        assert not comparison.passed

    def test_n1_side_is_inconclusive_even_when_means_match(self):
        comparison = compare_summaries(
            sampled(0.95, n=1, validated=False),
            SampleSummary.exact_value(0.95),
            self.POLICY,
        )
        assert comparison.verdict == INCONCLUSIVE
        assert comparison.method == "unvalidated"
        assert not comparison.passed

    def test_unvalidated_flag_alone_blocks_certification(self):
        comparison = compare_summaries(
            sampled(0.95, n=10, validated=False),
            sampled(0.95),
            self.POLICY,
        )
        assert comparison.verdict == INCONCLUSIVE

    def test_one_sample_agreement(self):
        comparison = compare_summaries(
            sampled(0.951, half_width=0.01, n=10),
            SampleSummary.exact_value(0.95),
            self.POLICY,
        )
        assert comparison.verdict == AGREE
        assert comparison.method == "one-sample-t"

    def test_large_significant_difference_disagrees(self):
        comparison = compare_summaries(
            sampled(0.99, half_width=0.001, n=30),
            SampleSummary.exact_value(0.90),
            self.POLICY,
        )
        assert comparison.verdict == DISAGREE
        assert comparison.p_value < 0.01

    def test_inside_band_even_if_significant_agrees(self):
        # A tiny but highly significant difference stays AGREE — the
        # modeling band, not the p-value, is the acceptance criterion.
        comparison = compare_summaries(
            sampled(0.951, half_width=0.0001, n=30),
            SampleSummary.exact_value(0.95),
            self.POLICY,
        )
        assert comparison.p_value < 0.01
        assert comparison.verdict == AGREE

    def test_outside_band_but_not_significant_agrees(self):
        # Wide intervals: the difference exceeds the band but carries
        # no statistical weight, so the backends are not shown apart.
        comparison = compare_summaries(
            sampled(0.95, half_width=0.2, n=4),
            sampled(0.90, half_width=0.2, n=4),
            self.POLICY,
        )
        assert comparison.difference > comparison.band
        assert comparison.verdict == AGREE

    def test_welch_path_for_two_sampled_sides(self):
        comparison = compare_summaries(
            sampled(0.95), sampled(0.94), self.POLICY
        )
        assert comparison.method == "welch-t"
