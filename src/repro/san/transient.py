"""Transient CTMC analysis by uniformization.

The steady-state solver (:mod:`repro.san.statespace`) answers
long-run questions; this module answers *time-dependent* ones — "what
is the probability the system has failed by time t?", "what is the
expected accumulated reward over the first hour?" — for the same
class of models (all-exponential SANs with a tractable state space).

Uniformization (Jensen's method) converts the CTMC with generator
``Q`` into a discrete-time chain ``P = I + Q/Lambda`` subordinated to
a Poisson process of rate ``Lambda >= max |q_ii|``::

    pi(t) = sum_k  PoissonPMF(k; Lambda t) * pi(0) P^k

The series is truncated once the Poisson tail falls below a
tolerance; the truncation error is bounded by the discarded tail
mass, so results carry a guaranteed accuracy. Expected accumulated
rewards use the standard integrated form with Poisson *survival*
weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .errors import StateSpaceError
from .statespace import StateSpace

__all__ = ["TransientSolution", "TransientSolver"]

_DEFAULT_TOLERANCE = 1e-9
_MAX_TERMS = 1_000_000


@dataclass(frozen=True)
class TransientSolution:
    """State probabilities at one time point."""

    time: float
    probabilities: np.ndarray
    place_names: Sequence[str]
    markings: Sequence[tuple]

    def probability_of(self, predicate: Callable[[Dict[str, int]], bool]) -> float:
        """Total probability of markings satisfying ``predicate`` at
        this time."""
        total = 0.0
        for marking, probability in zip(self.markings, self.probabilities):
            if predicate(dict(zip(self.place_names, marking))):
                total += float(probability)
        return total

    def expected_reward(self, rate: Callable[[Dict[str, int]], float]) -> float:
        """Expected instantaneous rate reward at this time."""
        total = 0.0
        for marking, probability in zip(self.markings, self.probabilities):
            total += float(probability) * float(
                rate(dict(zip(self.place_names, marking)))
            )
        return total


class TransientSolver:
    """Uniformization over a generated :class:`StateSpace`.

    Parameters
    ----------
    space:
        The chain, from :meth:`StateSpaceGenerator.generate`.
    initial:
        Initial distribution over ``space.markings`` (defaults to all
        mass on the first marking — the model's initial marking).
    tolerance:
        Bound on the discarded Poisson tail mass.
    """

    def __init__(
        self,
        space: StateSpace,
        initial: Optional[Sequence[float]] = None,
        tolerance: float = _DEFAULT_TOLERANCE,
    ) -> None:
        if not 0 < tolerance < 1:
            raise StateSpaceError(f"tolerance must be in (0, 1), got {tolerance}")
        self.space = space
        n = space.size
        q = space.generator_matrix()
        self._rate = float(max(-np.diag(q).min(), 1e-300))
        # P = I + Q / Lambda (row-stochastic by construction).
        self._p = np.eye(n) + q / self._rate
        if initial is None:
            pi0 = np.zeros(n)
            pi0[0] = 1.0
        else:
            pi0 = np.asarray(initial, dtype=float)
            if pi0.shape != (n,) or abs(pi0.sum() - 1.0) > 1e-9 or (pi0 < 0).any():
                raise StateSpaceError(
                    "initial must be a probability vector over the state space"
                )
        self._pi0 = pi0
        self._tolerance = float(tolerance)

    # ------------------------------------------------------------------
    def _terms(self, t: float):
        """Yield (poisson_weight, pi0 @ P^k) pairs covering 1-tol mass."""
        from scipy import stats as _scipy_stats

        lam_t = self._rate * t
        vector = self._pi0.copy()
        cumulative = 0.0
        k = 0
        while cumulative < 1.0 - self._tolerance:
            weight = float(_scipy_stats.poisson.pmf(k, lam_t))
            yield weight, vector
            cumulative += weight
            vector = vector @ self._p
            k += 1
            if k > _MAX_TERMS:
                raise StateSpaceError(
                    f"uniformization did not converge after {k} terms "
                    f"(Lambda*t = {lam_t:.3g}); model too stiff"
                )

    def solve(self, t: float) -> TransientSolution:
        """State probabilities at time ``t``."""
        if t < 0:
            raise StateSpaceError(f"time must be >= 0, got {t}")
        if t == 0:
            probabilities = self._pi0.copy()
        else:
            probabilities = np.zeros(self.space.size)
            for weight, vector in self._terms(t):
                probabilities += weight * vector
            probabilities = np.clip(probabilities, 0.0, None)
            probabilities /= probabilities.sum()
        return TransientSolution(
            time=t,
            probabilities=probabilities,
            place_names=self.space.place_names,
            markings=tuple(self.space.markings),
        )

    def solve_many(self, times: Sequence[float]) -> List[TransientSolution]:
        """Solutions at several time points."""
        return [self.solve(t) for t in times]

    def accumulated_reward(
        self, rate: Callable[[Dict[str, int]], float], t: float
    ) -> float:
        """Expected accumulated rate reward over ``[0, t]``.

        Uses ``E[int_0^t r(X_s) ds] = (1/Lambda) * sum_k P(N_t > k)
        * r(pi0 P^k)`` where ``N_t`` is the uniformization Poisson
        process.
        """
        from scipy import stats as _scipy_stats

        if t < 0:
            raise StateSpaceError(f"time must be >= 0, got {t}")
        if t == 0:
            return 0.0
        reward_vector = np.array(
            [
                float(rate(dict(zip(self.space.place_names, marking))))
                for marking in self.space.markings
            ]
        )
        lam_t = self._rate * t
        total = 0.0
        vector = self._pi0.copy()
        cumulative_pmf = 0.0
        k = 0
        while True:
            pmf = float(_scipy_stats.poisson.pmf(k, lam_t))
            cumulative_pmf += pmf
            survival = max(0.0, 1.0 - cumulative_pmf)  # P(N_t > k)
            total += survival * float(vector @ reward_vector)
            if survival < self._tolerance and k > lam_t:
                break
            vector = vector @ self._p
            k += 1
            if k > _MAX_TERMS:
                raise StateSpaceError("accumulated_reward did not converge")
        return total / self._rate
