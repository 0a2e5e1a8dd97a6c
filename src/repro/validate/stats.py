"""Two-sample statistics for cross-backend comparisons.

Backends report either *exact* numbers (zero sampling error: the CTMC
solve, the renewal closed forms) or *sampled* estimates (a mean, a
confidence half-width, and a replication count). Comparing them
correctly needs three different instruments:

* sampled vs sampled — Welch's unequal-variance two-sample t-test,
  with the standard errors recovered from the reported half-widths
  via :func:`repro.san.statistics.standard_error_of`;
* sampled vs exact — a one-sample t-test of the simulated mean
  against the exact value;
* exact vs exact — a plain difference against the tolerance band
  (two deterministic numbers either agree or they do not).

Statistical significance alone is the wrong acceptance criterion
between *different model abstractions*: with enough replications any
systematic abstraction gap becomes "significant" even when it is
far below the modeling tolerance. The verdict therefore combines
both: backends AGREE when the difference is inside the tolerance
band **or** statistically indistinguishable, and DISAGREE only when
it is both outside the band and significant.

An interval built from a single observation carries no variance
information (its ``validated=False`` flag, see PR-4); such results
can never *certify* agreement — they yield INCONCLUSIVE, not AGREE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..san.statistics import ConfidenceInterval, standard_error_of, t_critical

__all__ = [
    "AGREE",
    "DISAGREE",
    "INCONCLUSIVE",
    "SampleSummary",
    "Comparison",
    "TolerancePolicy",
    "welch_statistic",
    "compare_summaries",
]

#: Verdicts of one comparison. AGREE is a positive certification;
#: INCONCLUSIVE means "no statistical basis to certify" (for example
#: an n=1 interval), which the drivers report but never count as
#: agreement.
AGREE = "agree"
DISAGREE = "disagree"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SampleSummary:
    """One backend's answer for one metric, in comparable form.

    ``samples == 0`` marks an exact (zero-sampling-error) value;
    ``validated`` mirrors the interval flag — a sampled summary with
    one replication is unvalidated and cannot certify anything.
    """

    mean: float
    half_width: float = 0.0
    samples: int = 0
    confidence: float = 0.95
    validated: bool = True

    @property
    def exact(self) -> bool:
        """True for zero-sampling-error values."""
        return self.samples == 0

    @property
    def standard_error(self) -> Optional[float]:
        """Standard error of the mean; ``None`` when unavailable
        (exact values have none, unvalidated intervals hide theirs)."""
        if self.exact:
            return 0.0
        if not self.validated or self.samples < 2:
            return None
        return standard_error_of(self.to_interval())

    def to_interval(self) -> ConfidenceInterval:
        """The equivalent :class:`ConfidenceInterval`."""
        return ConfidenceInterval(
            self.mean,
            self.half_width,
            self.confidence,
            max(self.samples, 1),
            validated=self.validated and self.samples >= 1,
        )

    @classmethod
    def from_interval(cls, interval: ConfidenceInterval) -> "SampleSummary":
        """Summary of a sampled estimate."""
        return cls(
            mean=interval.mean,
            half_width=interval.half_width,
            samples=interval.samples,
            confidence=interval.confidence,
            validated=interval.validated,
        )

    @classmethod
    def exact_value(cls, value: float) -> "SampleSummary":
        """Summary of an exact (deterministic) value."""
        return cls(mean=value, half_width=0.0, samples=0, validated=True)


@dataclass(frozen=True)
class TolerancePolicy:
    """When two backends count as agreeing.

    Attributes
    ----------
    alpha:
        Significance level of the statistical test. Differences with
        ``p >= alpha`` are statistically indistinguishable.
    rel_tolerance / abs_tolerance:
        The modeling-tolerance band: different abstractions (renewal
        closed form vs full SAN) are allowed to differ systematically
        by up to ``max(abs_tolerance, rel_tolerance * scale)`` where
        ``scale`` is the larger magnitude of the two means.
    """

    alpha: float = 0.01
    rel_tolerance: float = 0.02
    abs_tolerance: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.rel_tolerance < 0 or self.abs_tolerance < 0:
            raise ValueError("tolerances must be >= 0")

    def band(self, a: float, b: float) -> float:
        """The allowed absolute difference for means ``a`` and ``b``."""
        return max(self.abs_tolerance, self.rel_tolerance * max(abs(a), abs(b)))


@dataclass(frozen=True)
class Comparison:
    """Outcome of comparing two summaries under a policy."""

    verdict: str
    method: str
    difference: float
    band: float
    statistic: Optional[float] = None
    p_value: Optional[float] = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        """Only a positive AGREE counts as passing."""
        return self.verdict == AGREE

    def __str__(self) -> str:
        bits = [
            f"{self.verdict.upper()} ({self.method})",
            f"diff={self.difference:.4g}",
            f"band={self.band:.4g}",
        ]
        if self.p_value is not None:
            bits.append(f"p={self.p_value:.3g}")
        if self.detail:
            bits.append(self.detail)
        return " ".join(bits)


def welch_statistic(
    a: SampleSummary, b: SampleSummary
) -> "tuple[float, float, float]":
    """Welch's t statistic, degrees of freedom, and two-sided p-value
    for two sampled summaries (Welch–Satterthwaite approximation)."""
    from scipy import stats as _scipy_stats

    se_a, se_b = a.standard_error, b.standard_error
    if se_a is None or se_b is None:
        raise ValueError("both summaries need an estimable standard error")
    var = se_a**2 + se_b**2
    if var == 0.0:
        # Two zero-variance estimates: identical means agree trivially,
        # different means differ with certainty.
        return (math.inf if a.mean != b.mean else 0.0, 1.0,
                0.0 if a.mean != b.mean else 1.0)
    t = (a.mean - b.mean) / math.sqrt(var)
    df = var**2 / (
        se_a**4 / (a.samples - 1) + se_b**4 / (b.samples - 1)
    ) if se_a or se_b else 1.0
    df = max(df, 1.0)
    p = 2.0 * float(_scipy_stats.t.sf(abs(t), df=df))
    return t, df, p


def _one_sample(
    sampled: SampleSummary, exact: SampleSummary
) -> "tuple[float, float]":
    """One-sample t statistic and p-value of ``sampled`` against the
    exact value."""
    from scipy import stats as _scipy_stats

    se = sampled.standard_error
    if se is None:
        raise ValueError("sampled summary needs an estimable standard error")
    if se == 0.0:
        return (math.inf if sampled.mean != exact.mean else 0.0,
                0.0 if sampled.mean != exact.mean else 1.0)
    t = (sampled.mean - exact.mean) / se
    p = 2.0 * float(_scipy_stats.t.sf(abs(t), df=sampled.samples - 1))
    return t, p


def compare_summaries(
    a: SampleSummary, b: SampleSummary, policy: TolerancePolicy
) -> Comparison:
    """Compare two summaries, dispatching on their statistical nature.

    The verdict logic (see the module docstring): inside the band or
    statistically indistinguishable -> AGREE; outside the band *and*
    significant -> DISAGREE; no usable variance information on a
    sampled side -> INCONCLUSIVE (never AGREE on n=1 evidence).
    """
    diff = abs(a.mean - b.mean)
    band = policy.band(a.mean, b.mean)

    if a.exact and b.exact:
        verdict = AGREE if diff <= band else DISAGREE
        return Comparison(verdict, "exact-difference", diff, band)

    # At least one sampled side. An unvalidated sampled side cannot
    # certify agreement no matter how close the means look.
    for side in (a, b):
        if not side.exact and (not side.validated or side.samples < 2):
            return Comparison(
                INCONCLUSIVE,
                "unvalidated",
                diff,
                band,
                detail=(
                    f"a sampled side has n={side.samples} "
                    "(validated=False); no statistical basis to certify"
                ),
            )

    if a.exact or b.exact:
        sampled, exact = (b, a) if a.exact else (a, b)
        t, p = _one_sample(sampled, exact)
        method = "one-sample-t"
    else:
        t, _, p = welch_statistic(a, b)
        method = "welch-t"

    if diff <= band or p >= policy.alpha:
        return Comparison(AGREE, method, diff, band, statistic=t, p_value=p)
    return Comparison(
        DISAGREE,
        method,
        diff,
        band,
        statistic=t,
        p_value=p,
        detail=f"difference exceeds the tolerance band at alpha={policy.alpha}",
    )
