"""Goodness-of-fit checks: samplers against their closed forms.

The stochastic engine is only as trustworthy as its primitive
samplers. Every distribution in :mod:`repro.san.distributions` now
carries a closed-form ``cdf``; this module tests the *sampler* against
that CDF (Kolmogorov–Smirnov for continuous laws, chi-square on
equiprobable bins as an independent second instrument), and the
failure arrival processes in :mod:`repro.failures.processes` against
their analytic inter-arrival laws and average rates.

All checks draw their randomness through
:class:`repro.san.rng.StreamRegistry`, the repository's single seeding
entry point, so a reported failure is reproducible from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..failures.processes import (
    BurstProcess,
    ModulatedPoissonProcess,
    PoissonProcess,
)
from ..san.distributions import (
    Distribution,
    Erlang,
    Exponential,
    Hyperexponential,
    LogNormal,
    MaxOfExponentials,
    Uniform,
    Weibull,
)
from ..san.rng import StreamRegistry

__all__ = [
    "GofResult",
    "ks_check",
    "chi_square_check",
    "check_sampler",
    "check_poisson_process",
    "check_modulated_process",
    "check_burst_process",
    "default_distribution_suite",
    "run_distribution_checks",
    "run_failure_process_checks",
]


@dataclass(frozen=True)
class GofResult:
    """Outcome of one goodness-of-fit check."""

    name: str
    test: str
    statistic: float
    p_value: float
    samples: int
    alpha: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        """The null (sampler matches the closed form) survives."""
        return self.p_value >= self.alpha

    def __str__(self) -> str:
        marker = "PASS" if self.passed else "FAIL"
        extra = f" {self.detail}" if self.detail else ""
        return (
            f"[{marker}] {self.name} ({self.test}): "
            f"stat={self.statistic:.4g} p={self.p_value:.3g} "
            f"n={self.samples}{extra}"
        )


def ks_check(
    name: str,
    samples: Sequence[float],
    cdf: Callable[[float], float],
    alpha: float = 0.01,
) -> GofResult:
    """One-sample Kolmogorov–Smirnov test of ``samples`` against a
    closed-form CDF."""
    from scipy import stats as _scipy_stats

    def vector_cdf(values: np.ndarray) -> np.ndarray:
        # kstest hands the whole sorted sample to the CDF at once; the
        # distribution CDFs are scalar functions.
        return np.array([cdf(float(v)) for v in np.atleast_1d(values)])

    statistic, p_value = _scipy_stats.kstest(np.asarray(samples), vector_cdf)
    return GofResult(
        name, "ks", float(statistic), float(p_value), len(samples), alpha
    )


def chi_square_check(
    name: str,
    samples: Sequence[float],
    cdf: Callable[[float], float],
    bins: int = 20,
    alpha: float = 0.01,
) -> GofResult:
    """Chi-square test on bins of (asymptotically) equal probability.

    Bin edges come from the empirical quantiles, expected counts from
    the closed-form CDF over those edges — an instrument independent
    of the KS statistic's supremum norm.
    """
    from scipy import stats as _scipy_stats

    data = np.sort(np.asarray(samples, dtype=float))
    n = len(data)
    if n < bins * 5:
        raise ValueError(
            f"need at least {bins * 5} samples for {bins} bins, got {n}"
        )
    quantiles = np.linspace(0.0, 1.0, bins + 1)[1:-1]
    edges = np.concatenate(([-np.inf], np.quantile(data, quantiles), [np.inf]))
    observed, _ = np.histogram(data, bins=edges)
    cdf_at = [0.0] + [float(cdf(edge)) for edge in edges[1:-1]] + [1.0]
    expected = np.diff(cdf_at) * n
    # Merge vanishing-expectation bins into their neighbour to keep the
    # chi-square approximation honest.
    keep = expected > 1e-9
    observed, expected = observed[keep], expected[keep]
    statistic, p_value = _scipy_stats.chisquare(
        observed, expected * (observed.sum() / expected.sum())
    )
    return GofResult(
        name, "chi-square", float(statistic), float(p_value), n, alpha,
        detail=f"bins={len(observed)}",
    )


def check_sampler(
    name: str,
    distribution: Distribution,
    n: int = 4000,
    seed: int = 0,
    alpha: float = 0.01,
) -> List[GofResult]:
    """KS + chi-square of one distribution's sampler against its own
    closed-form ``cdf``."""
    rng = StreamRegistry(seed).get(f"validate/gof/{name}")
    samples = [distribution.sample(rng) for _ in range(n)]
    return [
        ks_check(name, samples, distribution.cdf, alpha=alpha),
        chi_square_check(name, samples, distribution.cdf, alpha=alpha),
    ]


# ----------------------------------------------------------------------
# Failure arrival processes
# ----------------------------------------------------------------------

def check_poisson_process(
    rate: float = 2.0,
    horizon: float = 4000.0,
    seed: int = 0,
    alpha: float = 0.01,
) -> List[GofResult]:
    """The homogeneous process must have exponential inter-arrivals
    (KS) and a Poisson-consistent arrival count (two-sided exact
    tail)."""
    from scipy import stats as _scipy_stats

    rng = StreamRegistry(seed).get("validate/gof/poisson")
    arrivals = PoissonProcess(rate, rng).arrivals(horizon)
    gaps = np.diff([0.0] + list(arrivals))
    results = [
        ks_check(
            "poisson-interarrivals",
            gaps,
            Exponential(rate).cdf,
            alpha=alpha,
        )
    ]
    expected = rate * horizon
    count = len(arrivals)
    # Two-sided exact Poisson tail probability of a count this extreme.
    lower = float(_scipy_stats.poisson.cdf(count, expected))
    upper = float(_scipy_stats.poisson.sf(count - 1, expected))
    p_value = min(1.0, 2.0 * min(lower, upper))
    results.append(
        GofResult(
            "poisson-count",
            "poisson-tail",
            float(count),
            p_value,
            count,
            alpha,
            detail=f"expected {expected:.0f}",
        )
    )
    return results


def _rate_check(
    name: str,
    count: int,
    expected: float,
    alpha: float,
    detail: str = "",
) -> GofResult:
    """Normal-approximation check of an arrival count against its
    expectation (the count is a sum of many thin-window indicators)."""
    from scipy import stats as _scipy_stats

    if expected <= 0:
        raise ValueError(f"expected count must be > 0, got {expected}")
    z = (count - expected) / math.sqrt(expected)
    p_value = 2.0 * float(_scipy_stats.norm.sf(abs(z)))
    return GofResult(
        name, "rate-z", z, p_value, count, alpha,
        detail=detail or f"expected {expected:.0f}",
    )


def check_modulated_process(
    base_rate: float = 1.0,
    r: float = 9.0,
    alpha_fraction: float = 0.2,
    window: float = 50.0,
    horizon: float = 40000.0,
    seed: int = 0,
    alpha: float = 0.01,
) -> GofResult:
    """The two-phase modulated process must realise its advertised
    time-averaged rate ``base_rate * (1 + alpha * r)``.

    The count variance of a Markov-modulated Poisson process exceeds
    the Poisson variance; a Poisson-width z-band would over-reject, so
    the z-score is corrected by the MMPP over-dispersion factor
    (the long-window limit of var/mean for the two-phase chain).
    """
    from scipy import stats as _scipy_stats

    rng = StreamRegistry(seed).get("validate/gof/modulated")
    process = ModulatedPoissonProcess(base_rate, r, alpha_fraction, window, rng)
    count = len(process.arrivals(horizon))
    expected = process.average_rate * horizon
    # Over-dispersion of the two-phase MMPP (long-horizon limit):
    # var/mean = 1 + 2 a(1-a) (dr)^2 T_c / mean_rate, with T_c the
    # phase-mixing time  (1/quiet_mean + 1/window)^{-1}.
    a = alpha_fraction
    delta = base_rate * r  # rate gap between the phases
    t_mix = 1.0 / (1.0 / process.quiet_mean + 1.0 / window)
    over = 1.0 + 2.0 * a * (1.0 - a) * delta**2 * t_mix / process.average_rate
    z = (count - expected) / math.sqrt(expected * over)
    p_value = 2.0 * float(_scipy_stats.norm.sf(abs(z)))
    return GofResult(
        "modulated-average-rate", "rate-z", z, p_value, count, alpha,
        detail=f"expected {expected:.0f}, over-dispersion x{over:.1f}",
    )


def check_burst_process(
    base_rate: float = 1.0,
    r: float = 5.0,
    p_e: float = 0.3,
    window: float = 2.0,
    horizon: float = 30000.0,
    seed: int = 0,
    alpha: float = 0.01,
) -> List[GofResult]:
    """Burst semantics: with ``p_e = 0`` the process degenerates to the
    base Poisson process exactly; with bursts on, the arrival count
    must exceed the base expectation (bursts only ever add)."""
    from scipy import stats as _scipy_stats

    streams = StreamRegistry(seed)
    plain = BurstProcess(
        base_rate, r, 0.0, window, streams.get("validate/gof/burst-off")
    ).arrivals(horizon)
    results = [
        _rate_check(
            "burst-off-reduces-to-poisson",
            len(plain),
            base_rate * horizon,
            alpha,
        )
    ]
    bursty = BurstProcess(
        base_rate, r, p_e, window, streams.get("validate/gof/burst-on")
    ).arrivals(horizon)
    # One-sided: bursts can only add arrivals, so the count must sit
    # clearly above the base expectation. p here is the probability of
    # seeing this much excess *or less* under "bursts add nothing" —
    # near 1 when bursts demonstrably fire, tiny when they do not.
    base_expected = base_rate * horizon
    z = (len(bursty) - base_expected) / math.sqrt(base_expected)
    results.append(
        GofResult(
            "burst-on-adds-arrivals",
            "excess-z",
            z,
            float(_scipy_stats.norm.cdf(z)),
            len(bursty),
            alpha,
            detail=f"{len(bursty)} bursty vs {len(plain)} plain",
        )
    )
    return results


def default_distribution_suite(seed: int = 0) -> "dict[str, Distribution]":
    """The samplers the validation CLI checks by default — every law
    the checkpoint model actually fires, at paper-like parameters."""
    return {
        "exponential": Exponential(1.0 / 300.0),
        "uniform": Uniform(5.0, 15.0),
        "erlang2": Erlang(2, 1.0 / 300.0),
        "weibull": Weibull(1.5, 200.0),
        "lognormal": LogNormal(2.0, 0.5),
        "hyperexponential": Hyperexponential(
            [0.7, 0.3], [1.0 / 100.0, 1.0 / 1000.0]
        ),
        "max-of-exponentials": MaxOfExponentials(1.0 / 10.0, 512),
    }


def run_distribution_checks(
    seed: int = 0, n: int = 4000, alpha: float = 0.01
) -> List[GofResult]:
    """GOF of every default sampler against its closed form."""
    results: List[GofResult] = []
    for name, distribution in default_distribution_suite(seed).items():
        results.extend(check_sampler(name, distribution, n=n, seed=seed, alpha=alpha))
    return results


def run_failure_process_checks(seed: int = 0, alpha: float = 0.01) -> List[GofResult]:
    """GOF of the failure arrival processes."""
    results = check_poisson_process(seed=seed, alpha=alpha)
    results.append(check_modulated_process(seed=seed, alpha=alpha))
    results.extend(check_burst_process(seed=seed, alpha=alpha))
    return results
