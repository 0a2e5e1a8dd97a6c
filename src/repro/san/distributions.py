"""Firing-time distributions for timed SAN activities.

Every distribution exposes:

* ``sample(rng, state)`` — draw a firing delay. ``state`` is the live
  simulation state (:class:`repro.san.simulator.SimulationState`) so a
  parameter may be *marking dependent*: any scalar parameter can be
  given either as a number or as a callable ``state -> float`` that is
  evaluated at sampling time.
* ``mean(state=None)`` — the analytic mean where a closed form exists
  (used by the analytical cross-checks and by tests).

The set covers everything the DSN'05 paper needs: deterministic
latencies (broadcast, dump, write-back, reboot), exponential events
(failures, recovery), the hyper-exponential mixture used for generic
correlated failures, and the max-of-``n``-exponentials order statistic
the paper derives for checkpoint coordination (its Section 5 closed
form ``Y = -(1/lambda) * log(1 - U**(1/n))``).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DistributionError

__all__ = [
    "Distribution",
    "Deterministic",
    "Exponential",
    "Uniform",
    "Erlang",
    "Weibull",
    "LogNormal",
    "Hyperexponential",
    "MaxOfExponentials",
    "EULER_MASCHERONI",
    "harmonic_number",
]

#: Euler-Mascheroni constant, used by the harmonic-number approximation.
EULER_MASCHERONI = 0.57721566490153286

Param = Union[float, Callable[[object], float]]


def _resolve(param: Param, state: object) -> float:
    """Evaluate a possibly state-dependent scalar parameter."""
    if callable(param):
        return float(param(state))
    return float(param)


def harmonic_number(n: int) -> float:
    """Return the n-th harmonic number ``H_n = sum_{k=1}^{n} 1/k``.

    Exact summation below 10^6 terms; the asymptotic expansion
    ``ln n + gamma + 1/(2n) - 1/(12 n^2)`` beyond (relative error under
    1e-12 there).
    """
    if n < 1:
        raise ValueError(f"harmonic_number requires n >= 1, got {n}")
    if n < 1_000_000:
        return float(np.sum(1.0 / np.arange(1, n + 1)))
    return math.log(n) + EULER_MASCHERONI + 1.0 / (2 * n) - 1.0 / (12 * n * n)


class Distribution:
    """Abstract firing-delay distribution."""

    def sample(self, rng: np.random.Generator, state: object = None) -> float:
        """Draw one non-negative delay."""
        raise NotImplementedError

    def mean(self, state: object = None) -> float:
        """Analytic mean, if available."""
        raise NotImplementedError

    def cdf(self, x: float, state: object = None) -> float:
        """Closed-form ``P(X <= x)`` where one exists.

        Every concrete distribution in this module implements it; the
        validation layer's goodness-of-fit checks
        (:mod:`repro.validate.gof`) test each sampler against its own
        ``cdf``, so a sampler and its closed form can never drift
        apart silently.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Deterministic(Distribution):
    """A fixed (possibly marking-dependent) delay.

    Used for the paper's non-random events: broadcast overhead,
    checkpoint dump and write-back latencies, the master timeout, the
    correlated-failure window, and the system reboot time.
    """

    def __init__(self, value: Param) -> None:
        if not callable(value):
            # `not >=` so that NaN fails too; inf stays accepted (an
            # activity with an infinite delay never fires).
            if not value >= 0:
                raise DistributionError(
                    f"Deterministic value must be >= 0, got {value}"
                )
            # Constant delay: shadow the method with an instance-level
            # closure returning the precomputed float. The simulator
            # binds `distribution.sample` once per activity, so this
            # removes a parameter resolution per scheduled event (the
            # checkpoint model's hottest activities are all constant
            # Deterministic).
            constant = float(value)
            self.sample = lambda rng, state=None: constant  # type: ignore[assignment]
        self._value = value

    def sample(self, rng: np.random.Generator, state: object = None) -> float:
        value = _resolve(self._value, state)
        if value < 0:
            raise DistributionError(f"Deterministic delay resolved negative: {value}")
        return value

    def mean(self, state: object = None) -> float:
        return _resolve(self._value, state)

    def cdf(self, x: float, state: object = None) -> float:
        """Degenerate step at the (resolved) value."""
        return 1.0 if x >= _resolve(self._value, state) else 0.0

    def __repr__(self) -> str:
        return f"Deterministic({self._value!r})"


class Exponential(Distribution):
    """Exponential delay with rate ``rate`` (mean ``1/rate``).

    The rate may be marking dependent — the paper's failure activities
    scale their rate by the correlated-failure factor whenever the
    system is inside a correlated-failure window.
    """

    def __init__(self, rate: Param) -> None:
        if not callable(rate):
            if not rate > 0:
                raise DistributionError(f"Exponential rate must be > 0, got {rate}")
            # Constant rate: precompute the scale. `1.0 / float(rate)`
            # is exactly the value the generic path would compute, so
            # the draw is bit-identical.
            scale = 1.0 / float(rate)
            self.sample = (  # type: ignore[assignment]
                lambda rng, state=None: float(rng.exponential(scale))
            )
        self._rate = rate

    @classmethod
    def from_mean(cls, mean: float) -> "Exponential":
        """Build from a mean delay rather than a rate."""
        if not mean > 0:
            raise DistributionError(f"Exponential mean must be > 0, got {mean}")
        return cls(1.0 / mean)

    def rate(self, state: object = None) -> float:
        """The current rate (evaluating a state-dependent callable)."""
        return _resolve(self._rate, state)

    def sample(self, rng: np.random.Generator, state: object = None) -> float:
        rate = self.rate(state)
        if rate <= 0:
            raise DistributionError(f"Exponential rate resolved non-positive: {rate}")
        return float(rng.exponential(1.0 / rate))

    def mean(self, state: object = None) -> float:
        return 1.0 / self.rate(state)

    def cdf(self, x: float, state: object = None) -> float:
        """``1 - exp(-rate * x)``."""
        if x <= 0:
            return 0.0
        return -math.expm1(-self.rate(state) * x)

    def __repr__(self) -> str:
        return f"Exponential(rate={self._rate!r})"


class Uniform(Distribution):
    """Uniform delay on ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high:
            raise DistributionError(f"Uniform requires 0 <= low <= high, got [{low}, {high}]")
        self._low = float(low)
        self._high = float(high)

    def sample(self, rng: np.random.Generator, state: object = None) -> float:
        return float(rng.uniform(self._low, self._high))

    def mean(self, state: object = None) -> float:
        return 0.5 * (self._low + self._high)

    def cdf(self, x: float, state: object = None) -> float:
        if x <= self._low:
            return 0.0
        if x >= self._high:
            return 1.0
        return (x - self._low) / (self._high - self._low)

    def __repr__(self) -> str:
        return f"Uniform({self._low}, {self._high})"


class Erlang(Distribution):
    """Erlang-``k`` delay: sum of ``k`` iid exponentials of rate ``rate``.

    Handy for modeling multi-stage latencies with less variance than a
    single exponential (e.g. staged recovery).
    """

    def __init__(self, k: int, rate: float) -> None:
        if not k >= 1:
            raise DistributionError(f"Erlang shape k must be >= 1, got {k}")
        if not rate > 0:
            raise DistributionError(f"Erlang rate must be > 0, got {rate}")
        self._k = int(k)
        self._rate = float(rate)

    def sample(self, rng: np.random.Generator, state: object = None) -> float:
        return float(rng.gamma(self._k, 1.0 / self._rate))

    def mean(self, state: object = None) -> float:
        return self._k / self._rate

    def cdf(self, x: float, state: object = None) -> float:
        """``1 - exp(-rx) * sum_{i<k} (rx)^i / i!`` (integer-shape
        gamma, evaluated by the finite series)."""
        if x <= 0:
            return 0.0
        rx = self._rate * x
        term = 1.0
        total = 1.0
        for i in range(1, self._k):
            term *= rx / i
            total += term
        return max(0.0, min(1.0, 1.0 - math.exp(-rx) * total))

    def __repr__(self) -> str:
        return f"Erlang(k={self._k}, rate={self._rate})"


class Weibull(Distribution):
    """Weibull delay with shape ``k`` and scale ``lam``.

    Included because hardware-failure fits in the literature are often
    Weibull; the paper itself uses exponentials, and tests compare the
    two regimes.
    """

    def __init__(self, shape: float, scale: float) -> None:
        if not shape > 0:
            raise DistributionError(f"Weibull shape must be > 0, got {shape}")
        if not scale > 0:
            raise DistributionError(f"Weibull scale must be > 0, got {scale}")
        self._shape = float(shape)
        self._scale = float(scale)

    def sample(self, rng: np.random.Generator, state: object = None) -> float:
        return float(self._scale * rng.weibull(self._shape))

    def mean(self, state: object = None) -> float:
        return self._scale * math.gamma(1.0 + 1.0 / self._shape)

    def cdf(self, x: float, state: object = None) -> float:
        """``1 - exp(-(x / scale)^shape)``."""
        if x <= 0:
            return 0.0
        return -math.expm1(-((x / self._scale) ** self._shape))

    def __repr__(self) -> str:
        return f"Weibull(shape={self._shape}, scale={self._scale})"


class LogNormal(Distribution):
    """Log-normal delay parameterised by the underlying normal's
    ``mu`` and ``sigma``."""

    def __init__(self, mu: float, sigma: float) -> None:
        if math.isnan(mu):
            raise DistributionError(f"LogNormal mu must not be NaN, got {mu}")
        if not sigma >= 0:
            raise DistributionError(f"LogNormal sigma must be >= 0, got {sigma}")
        self._mu = float(mu)
        self._sigma = float(sigma)

    def sample(self, rng: np.random.Generator, state: object = None) -> float:
        return float(rng.lognormal(self._mu, self._sigma))

    def mean(self, state: object = None) -> float:
        return math.exp(self._mu + 0.5 * self._sigma**2)

    def cdf(self, x: float, state: object = None) -> float:
        """``Phi((ln x - mu) / sigma)``; degenerate step for sigma 0."""
        if x <= 0:
            return 0.0
        if self._sigma == 0:
            return 1.0 if math.log(x) >= self._mu else 0.0
        z = (math.log(x) - self._mu) / self._sigma
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    def __repr__(self) -> str:
        return f"LogNormal(mu={self._mu}, sigma={self._sigma})"


class Hyperexponential(Distribution):
    """Probabilistic mixture of exponentials.

    With probability ``probs[i]`` the delay is drawn from an
    exponential of rate ``rates[i]``. This is the classical
    hyper-exponential form the paper cites for generic correlated
    failures: the system alternately sees an independent failure rate
    and a (much larger) correlated failure rate.
    """

    def __init__(self, probs: Sequence[float], rates: Sequence[Param]) -> None:
        if len(probs) != len(rates) or not probs:
            raise DistributionError("Hyperexponential needs matching, non-empty probs/rates")
        if any(p < 0 for p in probs) or not math.isclose(sum(probs), 1.0, abs_tol=1e-9):
            raise DistributionError(f"Hyperexponential probs must be a distribution: {probs}")
        if any((not callable(r)) and not r > 0 for r in rates):
            raise DistributionError(f"Hyperexponential rates must be > 0: {rates}")
        self._probs = [float(p) for p in probs]
        self._rates = list(rates)

    def sample(self, rng: np.random.Generator, state: object = None) -> float:
        branch = int(rng.choice(len(self._probs), p=self._probs))
        rate = _resolve(self._rates[branch], state)
        if rate <= 0:
            raise DistributionError(f"Hyperexponential rate resolved non-positive: {rate}")
        return float(rng.exponential(1.0 / rate))

    def mean(self, state: object = None) -> float:
        return sum(
            p / _resolve(r, state) for p, r in zip(self._probs, self._rates)
        )

    def cdf(self, x: float, state: object = None) -> float:
        """Mixture CDF ``sum_i p_i * (1 - exp(-r_i * x))``."""
        if x <= 0:
            return 0.0
        return sum(
            p * -math.expm1(-_resolve(r, state) * x)
            for p, r in zip(self._probs, self._rates)
        )

    def __repr__(self) -> str:
        return f"Hyperexponential(probs={self._probs}, rates={self._rates!r})"


class MaxOfExponentials(Distribution):
    """The maximum of ``n`` iid exponential variables of rate ``rate``.

    This is the paper's coordination-time law (Section 5): with ``n``
    compute nodes whose quiesce times are iid exponential with mean
    MTTQ, the time until *all* are quiesced is the maximum order
    statistic, with CDF ``F_Y(y) = (1 - exp(-rate * y)) ** n``. The
    paper samples it by inversion as

        ``Y = -(1/rate) * log(1 - U ** (1/n))``

    which is exactly what :meth:`sample` implements. Both ``rate`` and
    ``n`` may be marking dependent (``n`` is the configured number of
    coordinating nodes).
    """

    def __init__(self, rate: Param, n: Union[int, Callable[[object], int]]) -> None:
        if not callable(rate) and not rate > 0:
            raise DistributionError(f"MaxOfExponentials rate must be > 0, got {rate}")
        if not callable(n) and not n >= 1:
            raise DistributionError(f"MaxOfExponentials n must be >= 1, got {n}")
        self._rate = rate
        self._n = n

    def _params(self, state: object) -> "tuple[float, int]":
        rate = _resolve(self._rate, state)
        n = self._n(state) if callable(self._n) else self._n
        if rate <= 0 or n < 1:
            raise DistributionError(
                f"MaxOfExponentials resolved invalid params rate={rate}, n={n}"
            )
        return rate, int(n)

    def sample(self, rng: np.random.Generator, state: object = None) -> float:
        rate, n = self._params(state)
        u = float(rng.random())
        # Guard the open interval: u == 0 would give log(0) for n == 1 paths,
        # u == 1 cannot occur with numpy's [0, 1) generator.
        u = min(max(u, 1e-300), 1.0 - 1e-16)
        # For huge n, u**(1/n) -> 1 and 1 - u**(1/n) underflows; use expm1
        # for a numerically stable evaluation of 1 - exp(log(u)/n).
        inner = -math.expm1(math.log(u) / n)
        if inner <= 0.0:
            inner = 5e-324
        return -math.log(inner) / rate

    def mean(self, state: object = None) -> float:
        """``E[Y] = H_n / rate`` — the harmonic-number growth that makes
        coordination overhead logarithmic in the node count."""
        rate, n = self._params(state)
        return harmonic_number(n) / rate

    def cdf(self, y: float, state: object = None) -> float:
        """``P(Y <= y) = (1 - exp(-rate*y)) ** n``, evaluated stably."""
        rate, n = self._params(state)
        if y <= 0:
            return 0.0
        # (1 - e^{-ry})^n == exp(n * log1p(-e^{-ry}))
        inner = -math.exp(-rate * y)
        if inner >= 0.0:  # pragma: no cover - defensive
            return 1.0
        return math.exp(n * math.log1p(inner))

    def __repr__(self) -> str:
        return f"MaxOfExponentials(rate={self._rate!r}, n={self._n!r})"
