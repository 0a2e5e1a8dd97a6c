"""Correlated-failure window arithmetic.

Small, well-tested helpers shared by the SAN submodels' documentation,
the failure processes and the experiment configs: translating between
the paper's three parameterisations of correlation (conditional
probability ``p``, rate multiplier ``r``, coefficient ``alpha``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analytical.markov import conditional_probability, frate_factor, generic_system_rate

__all__ = ["CorrelationSpec"]


@dataclass(frozen=True)
class CorrelationSpec:
    """A correlated-failure configuration in the paper's vocabulary.

    Attributes
    ----------
    p_e:
        Probability a failure triggers error propagation.
    r:
        Failure-rate multiplier inside a window.
    alpha:
        Generic correlated-failure coefficient (0 = propagation only).
    window:
        Window duration in seconds.
    """

    p_e: float = 0.0
    r: float = 400.0
    alpha: float = 0.0
    window: float = 180.0

    def __post_init__(self) -> None:
        if not 0 <= self.p_e <= 1:
            raise ValueError(f"p_e must be in [0, 1], got {self.p_e}")
        if self.r < 0:
            raise ValueError(f"r must be >= 0, got {self.r}")
        if not 0 <= self.alpha < 1:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.window <= 0:
            raise ValueError(f"window must be > 0, got {self.window}")

    def system_rate(self, n_nodes: int, lam: float) -> float:
        """Average system failure rate under the generic semantics:
        ``n lam (1 + alpha r)``."""
        return generic_system_rate(n_nodes, lam, self.alpha, self.r)

    def conditional_probability(self, mu: float, n_nodes: int, lam: float) -> float:
        """Conditional follow-on failure probability implied by ``r``
        (Section 6's inversion)."""
        return conditional_probability(self.r, mu, n_nodes, lam)

    @classmethod
    def from_conditional_probability(
        cls, p: float, mu: float, n_nodes: int, lam: float, window: float = 180.0
    ) -> "CorrelationSpec":
        """Build a spec whose ``r`` reproduces a target conditional
        probability ``p`` (the paper's calibration direction)."""
        r = frate_factor(p, mu, n_nodes, lam)
        if r < 0:
            raise ValueError(
                f"target p={p} implies a correlated rate below the independent "
                f"rate (r={r:.3g}); correlation is not identifiable here"
            )
        return cls(p_e=p, r=r, window=window)
