"""Tests for repro.san.distributions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.san import (
    Deterministic,
    DistributionError,
    Erlang,
    Exponential,
    Hyperexponential,
    LogNormal,
    MaxOfExponentials,
    StreamRegistry,
    Uniform,
    Weibull,
    harmonic_number,
)


def stream(seed):
    """A seeded test stream derived through the repository seed policy."""
    return StreamRegistry(seed).get("test/distributions")


RNG = stream(1234)


def sample_mean(distribution, n=20000, rng=None):
    rng = rng or stream(99)
    return float(np.mean([distribution.sample(rng) for _ in range(n)]))


class TestHarmonicNumber:
    def test_first_values(self):
        assert harmonic_number(1) == 1.0
        assert harmonic_number(2) == pytest.approx(1.5)
        assert harmonic_number(4) == pytest.approx(25 / 12)

    def test_asymptotic_branch_continuity(self):
        exact = float(np.sum(1.0 / np.arange(1, 999_999 + 1)))
        assert harmonic_number(10**6) == pytest.approx(
            exact + 1e-6, rel=1e-9
        )

    def test_large_n(self):
        n = 2**30
        assert harmonic_number(n) == pytest.approx(
            math.log(n) + 0.5772156649, rel=1e-6
        )

    def test_invalid(self):
        with pytest.raises(ValueError):
            harmonic_number(0)

    @given(st.integers(min_value=1, max_value=10000))
    def test_monotone(self, n):
        assert harmonic_number(n + 1) > harmonic_number(n)


class TestDeterministic:
    def test_sample_is_value(self):
        assert Deterministic(3.5).sample(RNG) == 3.5

    def test_mean(self):
        assert Deterministic(2.0).mean() == 2.0

    def test_state_dependent(self):
        dist = Deterministic(lambda state: state["v"])
        assert dist.sample(RNG, {"v": 7.0}) == 7.0

    def test_negative_rejected(self):
        with pytest.raises(DistributionError):
            Deterministic(-1.0)

    def test_negative_resolved_rejected(self):
        dist = Deterministic(lambda state: -1.0)
        with pytest.raises(DistributionError):
            dist.sample(RNG, None)

    def test_zero_allowed(self):
        assert Deterministic(0.0).sample(RNG) == 0.0


class TestExponential:
    def test_mean(self):
        assert Exponential(4.0).mean() == 0.25

    def test_from_mean(self):
        assert Exponential.from_mean(5.0).mean() == pytest.approx(5.0)

    def test_sample_mean_converges(self):
        assert sample_mean(Exponential(2.0)) == pytest.approx(0.5, rel=0.05)

    def test_state_dependent_rate(self):
        dist = Exponential(lambda state: state["rate"])
        assert dist.mean({"rate": 10.0}) == pytest.approx(0.1)

    def test_invalid_rate(self):
        with pytest.raises(DistributionError):
            Exponential(0.0)
        with pytest.raises(DistributionError):
            Exponential(-1.0)
        with pytest.raises(DistributionError):
            Exponential.from_mean(0.0)

    def test_resolved_invalid_rate(self):
        dist = Exponential(lambda state: 0.0)
        with pytest.raises(DistributionError):
            dist.sample(RNG, None)

    def test_samples_non_negative(self):
        dist = Exponential(1.0)
        rng = stream(0)
        assert all(dist.sample(rng) >= 0 for _ in range(1000))


class TestUniform:
    def test_mean(self):
        assert Uniform(2.0, 4.0).mean() == 3.0

    def test_bounds(self):
        dist = Uniform(1.0, 2.0)
        rng = stream(0)
        samples = [dist.sample(rng) for _ in range(1000)]
        assert all(1.0 <= s <= 2.0 for s in samples)

    def test_invalid(self):
        with pytest.raises(DistributionError):
            Uniform(3.0, 2.0)
        with pytest.raises(DistributionError):
            Uniform(-1.0, 2.0)


class TestErlang:
    def test_mean(self):
        assert Erlang(3, 2.0).mean() == pytest.approx(1.5)

    def test_sample_mean(self):
        assert sample_mean(Erlang(4, 1.0)) == pytest.approx(4.0, rel=0.05)

    def test_lower_variance_than_exponential(self):
        rng = stream(5)
        erlang = [Erlang(10, 10.0).sample(rng) for _ in range(5000)]
        exponential = [Exponential(1.0).sample(rng) for _ in range(5000)]
        assert np.var(erlang) < np.var(exponential)

    def test_invalid(self):
        with pytest.raises(DistributionError):
            Erlang(0, 1.0)
        with pytest.raises(DistributionError):
            Erlang(1, 0.0)


class TestWeibull:
    def test_mean_shape_one_is_exponential(self):
        assert Weibull(1.0, 3.0).mean() == pytest.approx(3.0)

    def test_sample_mean(self):
        dist = Weibull(2.0, 1.0)
        assert sample_mean(dist) == pytest.approx(dist.mean(), rel=0.05)

    def test_invalid(self):
        with pytest.raises(DistributionError):
            Weibull(0.0, 1.0)
        with pytest.raises(DistributionError):
            Weibull(1.0, -1.0)


class TestLogNormal:
    def test_mean(self):
        assert LogNormal(0.0, 0.0).mean() == pytest.approx(1.0)

    def test_sample_mean(self):
        dist = LogNormal(1.0, 0.5)
        assert sample_mean(dist, n=50000) == pytest.approx(dist.mean(), rel=0.05)

    def test_invalid(self):
        with pytest.raises(DistributionError):
            LogNormal(0.0, -0.1)


class TestHyperexponential:
    def test_mean(self):
        dist = Hyperexponential([0.5, 0.5], [1.0, 2.0])
        assert dist.mean() == pytest.approx(0.5 * 1.0 + 0.5 * 0.5)

    def test_sample_mean(self):
        dist = Hyperexponential([0.3, 0.7], [1.0, 10.0])
        assert sample_mean(dist) == pytest.approx(dist.mean(), rel=0.06)

    def test_degenerates_to_exponential(self):
        dist = Hyperexponential([1.0], [2.0])
        assert dist.mean() == pytest.approx(0.5)

    def test_invalid_probs(self):
        with pytest.raises(DistributionError):
            Hyperexponential([0.5, 0.4], [1.0, 2.0])
        with pytest.raises(DistributionError):
            Hyperexponential([], [])
        with pytest.raises(DistributionError):
            Hyperexponential([0.5, 0.5], [1.0])

    def test_invalid_rates(self):
        with pytest.raises(DistributionError):
            Hyperexponential([1.0], [0.0])


class TestMaxOfExponentials:
    def test_n_one_is_exponential(self):
        assert MaxOfExponentials(2.0, 1).mean() == pytest.approx(0.5)

    def test_mean_is_harmonic(self):
        dist = MaxOfExponentials(1.0, 100)
        assert dist.mean() == pytest.approx(harmonic_number(100))

    def test_sample_mean_matches(self):
        dist = MaxOfExponentials(0.1, 64)  # MTTQ = 10s, 64 nodes
        assert sample_mean(dist) == pytest.approx(dist.mean(), rel=0.05)

    def test_sample_matches_direct_maximum(self):
        # Inversion sampling must match max of n iid exponentials.
        rng = stream(7)
        n, rate = 32, 0.5
        direct = [
            float(np.max(rng.exponential(1.0 / rate, size=n))) for _ in range(20000)
        ]
        dist = MaxOfExponentials(rate, n)
        rng2 = stream(8)
        inverted = [dist.sample(rng2) for _ in range(20000)]
        assert np.mean(direct) == pytest.approx(np.mean(inverted), rel=0.03)
        assert np.percentile(direct, 90) == pytest.approx(
            np.percentile(inverted, 90), rel=0.05
        )

    def test_cdf_endpoints(self):
        dist = MaxOfExponentials(1.0, 10)
        assert dist.cdf(0.0) == 0.0
        assert dist.cdf(100.0) == pytest.approx(1.0)

    def test_cdf_formula(self):
        dist = MaxOfExponentials(0.5, 5)
        y = 2.0
        assert dist.cdf(y) == pytest.approx((1 - math.exp(-0.5 * y)) ** 5)

    def test_huge_n_numerically_stable(self):
        dist = MaxOfExponentials(0.1, 2**30)
        rng = stream(3)
        samples = [dist.sample(rng) for _ in range(200)]
        assert all(math.isfinite(s) and s > 0 for s in samples)
        # E[max] = 10 * H_{2^30} ~ 214
        assert np.mean(samples) == pytest.approx(dist.mean(), rel=0.15)

    def test_state_dependent_n(self):
        dist = MaxOfExponentials(1.0, lambda state: state["n"])
        assert dist.mean({"n": 2}) == pytest.approx(1.5)

    def test_invalid(self):
        with pytest.raises(DistributionError):
            MaxOfExponentials(0.0, 10)
        with pytest.raises(DistributionError):
            MaxOfExponentials(1.0, 0)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=50)
    def test_mean_grows_logarithmically(self, n):
        # E[max of n] <= (ln n + 1) / rate
        assert MaxOfExponentials(1.0, n).mean() <= math.log(n) + 1.0


@pytest.mark.parametrize(
    "distribution",
    [
        Deterministic(1.0),
        Exponential(2.0),
        Uniform(0.5, 1.5),
        Erlang(3, 1.0),
        Weibull(1.5, 2.0),
        LogNormal(0.0, 0.3),
        Hyperexponential([0.2, 0.8], [1.0, 5.0]),
        MaxOfExponentials(1.0, 16),
    ],
)
def test_all_samples_non_negative(distribution):
    rng = stream(11)
    assert all(distribution.sample(rng) >= 0.0 for _ in range(500))


NAN = float("nan")


@pytest.mark.parametrize(
    "build, parameter",
    [
        pytest.param(lambda: Deterministic(NAN), "value", id="Deterministic"),
        pytest.param(lambda: Exponential(NAN), "rate", id="Exponential"),
        pytest.param(lambda: Exponential.from_mean(NAN), "mean", id="from_mean"),
        pytest.param(lambda: Uniform(NAN, 1.0), "low", id="Uniform-low"),
        pytest.param(lambda: Uniform(0.0, NAN), "high", id="Uniform-high"),
        pytest.param(lambda: Erlang(2, NAN), "rate", id="Erlang"),
        pytest.param(lambda: Weibull(NAN, 1.0), "shape", id="Weibull-shape"),
        pytest.param(lambda: Weibull(1.0, NAN), "scale", id="Weibull-scale"),
        pytest.param(lambda: LogNormal(NAN, 1.0), "mu", id="LogNormal-mu"),
        pytest.param(lambda: LogNormal(0.0, NAN), "sigma", id="LogNormal-sigma"),
        pytest.param(lambda: MaxOfExponentials(NAN, 4), "rate", id="MaxOfExponentials"),
        pytest.param(
            lambda: Hyperexponential([1.0], [NAN]), "rates", id="Hyperexponential"
        ),
    ],
)
def test_nan_parameter_rejected(build, parameter):
    """A NaN constant would be sampled as a NaN delay; it is refused
    at construction, naming the parameter."""
    with pytest.raises(DistributionError, match=parameter):
        build()


def test_infinite_deterministic_delay_accepted():
    assert Deterministic(math.inf).sample(RNG) == math.inf
