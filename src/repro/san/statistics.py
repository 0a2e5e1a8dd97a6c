"""Output analysis: confidence intervals and replications.

The paper simulates to steady state with a 95% confidence level. This
module provides the matching machinery:

* :class:`RunningStatistics` — numerically stable (Welford) streaming
  mean/variance;
* :class:`ConfidenceInterval` — Student-t interval over replications;
* :func:`replicate` — run a model factory across independent
  replications and aggregate each reward variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

__all__ = [
    "RunningStatistics",
    "ConfidenceInterval",
    "confidence_interval",
    "t_critical",
    "standard_error_of",
    "replicate",
]


class RunningStatistics:
    """Streaming mean and variance via Welford's algorithm."""

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._minimum = math.inf
        self._maximum = -math.inf

    def update(self, value: float) -> None:
        """Fold one observation into the statistics."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        self._minimum = min(self._minimum, value)
        self._maximum = max(self._maximum, value)

    def extend(self, values: Sequence[float]) -> None:
        """Fold many observations."""
        for value in values:
            self.update(value)

    @property
    def count(self) -> int:
        """Number of observations so far."""
        return self._count

    @property
    def mean(self) -> float:
        """Sample mean (0 when empty)."""
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0 with fewer than 2 samples)."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def stddev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest observation (inf when empty)."""
        return self._minimum

    @property
    def maximum(self) -> float:
        """Largest observation (-inf when empty)."""
        return self._maximum

    def __repr__(self) -> str:
        return (
            f"RunningStatistics(count={self._count}, mean={self.mean:.6g}, "
            f"stddev={self.stddev:.6g})"
        )


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean estimate with its confidence half-width.

    Attributes
    ----------
    mean:
        Point estimate.
    half_width:
        Half-width of the interval at the stated confidence.
    confidence:
        The confidence level, e.g. ``0.95``.
    samples:
        Number of observations behind the estimate.
    validated:
        False when the interval carries no statistical information —
        a single observation has no estimable variance, so its
        zero half-width must not be read as "perfect precision".
        Comparison and validation paths refuse to claim agreement
        from unvalidated intervals.
    """

    mean: float
    half_width: float
    confidence: float
    samples: int
    validated: bool = True

    @property
    def low(self) -> float:
        """Lower bound of the interval."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper bound of the interval."""
        return self.mean + self.half_width

    @property
    def relative_half_width(self) -> float:
        """Half-width relative to the mean (inf for a zero mean)."""
        if self.mean == 0:
            return math.inf if self.half_width else 0.0
        return abs(self.half_width / self.mean)

    def contains(self, value: float) -> bool:
        """True when ``value`` lies inside the interval."""
        return self.low <= value <= self.high

    def __str__(self) -> str:
        suffix = "" if self.validated else ", unvalidated"
        return (
            f"{self.mean:.6g} ± {self.half_width:.3g} "
            f"({self.confidence:.0%}, n={self.samples}{suffix})"
        )


#: Two-sided 95% Student-t quantiles for 1–30 degrees of freedom: entry
#: ``df - 1`` is ``float(stdtrit(df, 0.5 + 0.95 / 2.0))`` as scipy
#: 1.17.1 computes it. Every interval a figure prints comes from here
#: (df 1, 2 and 4 at the quick, standard and full presets), so no
#: figure run imports scipy.
_T_95 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205,
    2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776,
    2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
    2.0930240544083087, 2.085963447265864, 2.0796138447276795,
    2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846,
    2.0484071417952454, 2.045229642132703, 2.0422724563012378,
)


def t_critical(confidence: float, df: int) -> float:
    """The two-sided Student-t critical value at ``confidence`` with
    ``df`` degrees of freedom (the multiplier turning a standard error
    into a confidence half-width).

    The 95% value at an integer ``df`` up to 30 is read from a table;
    any other pair is computed by ``scipy.special.stdtrit``. Both give
    the float ``scipy.stats.t.ppf`` gives, bit for bit.
    """
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if confidence == 0.95 and isinstance(df, int) and df <= len(_T_95):
        return _T_95[df - 1]
    # `stdtrit` is the inverse Student-t CDF that `scipy.stats.t.ppf`
    # calls, bit for bit; importing `scipy.special` alone keeps the
    # much heavier `scipy.stats` out of the process.
    from scipy.special import stdtrit

    return float(stdtrit(df, 0.5 + confidence / 2.0))


def standard_error_of(interval: ConfidenceInterval) -> float:
    """Recover the standard error of the mean from an interval.

    This is the single authoritative inversion of
    :func:`confidence_interval` (``half_width = t * stderr``), used by
    the validation layer's two-sample tests. Unvalidated intervals
    (n = 1) carry no variance information, so asking for their
    standard error is an error, not a silent 0.
    """
    if not interval.validated or interval.samples < 2:
        raise ValueError(
            f"interval over {interval.samples} sample(s) has no estimable "
            "standard error (validated=False means unknown, not exact)"
        )
    return interval.half_width / t_critical(
        interval.confidence, interval.samples - 1
    )


def confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval over independent observations.

    With fewer than two observations the half-width is 0 **and the
    interval is marked unvalidated** — one sample has no estimable
    variance, so its zero width means "unknown", not "exact".
    """
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    n = len(values)
    if n == 0:
        raise ValueError("confidence_interval needs at least one value")
    statistics = RunningStatistics()
    statistics.extend(values)
    if n == 1:
        return ConfidenceInterval(
            statistics.mean, 0.0, confidence, 1, validated=False
        )
    half_width = t_critical(confidence, n - 1) * statistics.stddev / math.sqrt(n)
    return ConfidenceInterval(statistics.mean, half_width, confidence, n)


def replicate(
    run_once: Callable[[int], Dict[str, float]],
    replications: int,
    confidence: float = 0.95,
) -> Dict[str, ConfidenceInterval]:
    """Aggregate a per-replication measure dictionary into intervals.

    Parameters
    ----------
    run_once:
        ``replication_index -> {measure: value}``. The callable is
        responsible for seeding independently per index (use
        :meth:`repro.san.rng.StreamRegistry.spawn`).
    replications:
        Number of independent runs (>= 1).
    confidence:
        Confidence level for the intervals.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    samples: Dict[str, List[float]] = {}
    for index in range(replications):
        measures = run_once(index)
        for name, value in measures.items():
            samples.setdefault(name, []).append(float(value))
    return {
        name: confidence_interval(values, confidence)
        for name, values in samples.items()
    }
