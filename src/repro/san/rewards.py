"""Reward variables: how measures are defined on a SAN.

Following the Möbius reward formalism the paper relies on, a
:class:`RewardVariable` combines

* a **rate reward** — a function of the state, integrated over time
  ("accumulate 1 unit of useful work per unit time while the compute
  nodes are executing"), and
* **impulse rewards** — amounts earned at firings of specific
  activities ("subtract the lost work when a compute-node failure
  fires").

The simulator integrates rate rewards piecewise between events (all
rates are functions of the discrete state, hence piecewise constant)
and adds impulses at firing instants. Accumulation starts after the
configured transient (warm-up) period, which is how the paper's
steady-state measures discard the initial transient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from .errors import ModelDefinitionError

__all__ = ["RewardVariable", "RewardResult"]

RateFunction = Callable[[object], float]
ImpulseFunction = Callable[[object, int], float]


class RewardVariable:
    """A named measure over a SAN.

    Parameters
    ----------
    name:
        Measure name (key of the results dictionary).
    rate:
        Optional ``state -> float`` integrated over time.
    impulses:
        Optional mapping ``activity name -> (state, case) -> float``
        added whenever that activity fires.
    reads:
        Optional declaration of the places whose markings fully
        determine the rate. The simulator then caches
        the rate value and only re-evaluates the function when one of
        the declared places' version counters changed — the same
        declared-footprint contract input gates use. Leave ``None``
        (the default) for rates with an undeclarable footprint (e.g.
        reading mutable context); those are re-evaluated every event.

    Examples
    --------
    >>> useful = RewardVariable(
    ...     "useful_work",
    ...     rate=lambda s: 1.0 if s.tokens("execution") else 0.0,
    ...     impulses={"comp_failure": lambda s, case: -s.ctx.last_lost},
    ... )
    """

    def __init__(
        self,
        name: str,
        rate: Optional[RateFunction] = None,
        impulses: Optional[Mapping[str, ImpulseFunction]] = None,
        reads: Optional[Sequence[str]] = None,
    ) -> None:
        if not name:
            raise ModelDefinitionError("reward variable name must be non-empty")
        if rate is None and not impulses:
            raise ModelDefinitionError(
                f"reward variable {name!r}: needs a rate or at least one impulse"
            )
        if rate is not None and not callable(rate):
            raise ModelDefinitionError(f"reward variable {name!r}: rate must be callable")
        if reads is not None and rate is None:
            raise ModelDefinitionError(
                f"reward variable {name!r}: reads= only applies to rate rewards"
            )
        self.name = name
        self.rate = rate
        self.reads: Optional[Tuple[str, ...]] = (
            None if reads is None else tuple(reads)
        )
        self.impulses: Dict[str, ImpulseFunction] = dict(impulses or {})
        for activity_name, function in self.impulses.items():
            if not callable(function):
                raise ModelDefinitionError(
                    f"reward variable {name!r}: impulse for {activity_name!r} "
                    f"must be callable"
                )

    def __repr__(self) -> str:
        return (
            f"RewardVariable({self.name!r}, rate={'yes' if self.rate else 'no'}, "
            f"impulses={sorted(self.impulses)})"
        )


@dataclass
class RewardResult:
    """Accumulated value of one reward variable over one run.

    Attributes
    ----------
    name:
        The reward variable's name.
    accumulated:
        Total reward gathered after the warm-up period.
    observation_time:
        Length of the post-warm-up observation window.
    """

    name: str
    accumulated: float = 0.0
    observation_time: float = 0.0

    @property
    def time_average(self) -> float:
        """Accumulated reward per unit observed time (the steady-state
        time-averaged measure; 0 for an empty window)."""
        if self.observation_time <= 0:
            return 0.0
        return self.accumulated / self.observation_time

    def __repr__(self) -> str:
        return (
            f"RewardResult({self.name!r}, accumulated={self.accumulated:.6g}, "
            f"time_average={self.time_average:.6g})"
        )
