"""Analytical baselines and closed forms.

The checkpointing-model lineage the paper positions itself against
(Young [7], Daly [8]), the paper's own Section 5 coordination order
statistics and Section 6 correlated-failure Markov chain, and a
renewal-theoretic useful-work predictor used to cross-check the SAN
simulation.
"""

from . import (
    coordination,
    daly,
    design,
    markov,
    sensitivity,
    useful_work,
    young,
)

__all__ = [
    "young",
    "daly",
    "coordination",
    "markov",
    "useful_work",
    "design",
    "sensitivity",
]
