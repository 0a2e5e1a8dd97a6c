"""Tests for the failure-process machinery."""

import numpy as np
import pytest

from repro.core import MINUTE, YEAR
from repro.san import StreamRegistry
from repro.failures import (
    BurstProcess,
    CorrelationSpec,
    ModulatedPoissonProcess,
    PoissonProcess,
    clustering_coefficient,
    generate_trace,
)


def rng(seed=0):
    # Derive test streams through the repository seed policy rather
    # than seeding numpy directly (see tests/test_seed_policy.py).
    return StreamRegistry(seed).get("test/failures")


class TestPoissonProcess:
    def test_rate_recovered(self):
        arrivals = PoissonProcess(rate=2.0, rng=rng(1)).arrivals(horizon=5000.0)
        assert len(arrivals) / 5000.0 == pytest.approx(2.0, rel=0.05)

    def test_sorted_and_within_horizon(self):
        arrivals = PoissonProcess(1.0, rng(2)).arrivals(100.0)
        assert arrivals == sorted(arrivals)
        assert all(0 < t < 100.0 for t in arrivals)

    def test_iterator(self):
        process = iter(PoissonProcess(1.0, rng(3)))
        first, second = next(process), next(process)
        assert 0 < first < second

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonProcess(0.0, rng())
        with pytest.raises(ValueError):
            PoissonProcess(1.0, rng()).arrivals(0.0)


class TestModulatedPoissonProcess:
    def test_average_rate_formula(self):
        process = ModulatedPoissonProcess(
            base_rate=1.0, r=400.0, alpha=0.0025, window=180.0, rng=rng(4)
        )
        assert process.average_rate == pytest.approx(2.0)

    def test_empirical_rate_matches(self):
        process = ModulatedPoissonProcess(
            base_rate=0.01, r=100.0, alpha=0.05, window=50.0, rng=rng(5)
        )
        horizon = 2_000_000.0
        arrivals = process.arrivals(horizon)
        assert len(arrivals) / horizon == pytest.approx(
            process.average_rate, rel=0.10
        )

    def test_quiet_phase_mean(self):
        process = ModulatedPoissonProcess(1.0, 10.0, 0.2, 100.0, rng(6))
        assert process.quiet_mean == pytest.approx(400.0)

    def test_more_bursty_than_poisson(self):
        base_rate, horizon = 0.01, 1_000_000.0
        modulated = ModulatedPoissonProcess(
            base_rate, r=400.0, alpha=0.01, window=100.0, rng=rng(7)
        ).arrivals(horizon)
        plain = PoissonProcess(base_rate, rng(8)).arrivals(horizon)
        gaps_modulated = np.diff(modulated)
        gaps_plain = np.diff(plain)
        cv_modulated = np.std(gaps_modulated) / np.mean(gaps_modulated)
        cv_plain = np.std(gaps_plain) / np.mean(gaps_plain)
        assert cv_modulated > cv_plain

    def test_validation(self):
        with pytest.raises(ValueError):
            ModulatedPoissonProcess(1.0, 1.0, 0.0, 1.0, rng())
        with pytest.raises(ValueError):
            ModulatedPoissonProcess(1.0, -1.0, 0.5, 1.0, rng())


class TestBurstProcess:
    def test_no_bursts_reduces_to_poisson(self):
        process = BurstProcess(0.01, r=100.0, p_e=0.0, window=60.0, rng=rng(9))
        arrivals = process.arrivals(1_000_000.0)
        assert len(arrivals) / 1_000_000.0 == pytest.approx(0.01, rel=0.1)

    def test_bursts_add_arrivals(self):
        base = BurstProcess(0.01, 100.0, 0.0, 60.0, rng(10)).arrivals(500_000.0)
        bursty = BurstProcess(0.01, 100.0, 0.5, 60.0, rng(10)).arrivals(500_000.0)
        assert len(bursty) > len(base)

    def test_sorted_output(self):
        arrivals = BurstProcess(0.05, 50.0, 0.3, 30.0, rng(11)).arrivals(50_000.0)
        assert arrivals == sorted(arrivals)

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstProcess(1.0, 1.0, 1.5, 1.0, rng())


class TestTraces:
    def test_trace_mtbf(self):
        trace = generate_trace(
            n_nodes=1024, mttf_node=1 * YEAR, horizon=2000 * 3600.0, seed=1
        )
        expected_mtbf = YEAR / 1024
        gaps = np.diff([record.time for record in trace])
        assert float(np.mean(gaps)) == pytest.approx(expected_mtbf, rel=0.1)

    def test_node_ids_in_range(self):
        trace = generate_trace(64, 0.01 * YEAR, 10000 * 3600.0, seed=2)
        assert all(0 <= record.node_id < 64 for record in trace)

    def test_correlated_traces_cluster(self):
        horizon = 5000 * 3600.0
        plain = generate_trace(1024, YEAR, horizon, seed=3)
        correlated = generate_trace(
            1024, YEAR, horizon, seed=3, p_e=0.3, r=600.0, window=3 * MINUTE
        )
        window = 5 * MINUTE
        assert clustering_coefficient(correlated, window) > clustering_coefficient(
            plain, window
        )
        assert any(record.correlated for record in correlated)

    def test_estimators_validate(self):
        with pytest.raises(ValueError):
            clustering_coefficient([], window=1.0)
        trace = generate_trace(64, YEAR, 10000 * 3600.0, seed=4)
        with pytest.raises(ValueError):
            clustering_coefficient(trace, window=0.0)


class TestCorrelationSpec:
    def test_defaults_valid(self):
        spec = CorrelationSpec()
        assert spec.r == 400.0

    def test_system_rate(self):
        spec = CorrelationSpec(alpha=0.0025, r=400.0)
        lam = 1 / (3 * YEAR)
        assert spec.system_rate(32768, lam) == pytest.approx(2 * 32768 * lam)

    def test_calibration_roundtrip(self):
        mu, n, lam = 1 / (10 * MINUTE), 1024, 1 / (25 * YEAR)
        spec = CorrelationSpec.from_conditional_probability(0.3, mu, n, lam)
        assert spec.conditional_probability(mu, n, lam) == pytest.approx(0.3)

    def test_unidentifiable_correlation_rejected(self):
        # A tiny target p with many failing nodes implies r < 0.
        with pytest.raises(ValueError):
            CorrelationSpec.from_conditional_probability(
                1e-6, mu=1 / 600.0, n_nodes=100000, lam=1 / 3600.0
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            CorrelationSpec(p_e=1.5)
        with pytest.raises(ValueError):
            CorrelationSpec(window=0.0)
