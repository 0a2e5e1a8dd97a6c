"""Steady-state simulation driver for the checkpoint system model.

Mirrors the paper's experimental setup: steady-state simulation with
an initial transient period discarded, independent replications, and
95% confidence intervals on every reported measure.

The primary entry point is :func:`simulate`::

    from repro.core import ModelParameters, simulate
    result = simulate(ModelParameters(n_processors=131072), seed=7)
    print(result.useful_work_fraction.mean, result.total_useful_work.mean)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.trace import default_sink
from ..san import (
    ConfidenceInterval,
    RewardVariable,
    SimulationOutput,
    Simulator,
    StreamRegistry,
    confidence_interval,
)
from ..san import profiling
from .ledger import LedgerCounters
from .parameters import HOUR, ModelParameters, require_finite
from .submodels import USEFUL_WORK, breakdown_rewards, useful_work_reward
from .system import build_system

__all__ = [
    "PLAN_KERNELS",
    "SimulationPlan",
    "SimulationResult",
    "simulate",
    "run_single",
]

#: Kernels a SimulationPlan may select. The pair is
#: trajectory-preserving: both give bit-identical results per seed.
PLAN_KERNELS = ("incremental", "full")

#: Default transient period (the paper uses 1000 h; the model reaches
#: steady state much faster, and tests/benches override this anyway).
DEFAULT_WARMUP = 100.0 * HOUR
#: Default observed window after the transient.
DEFAULT_OBSERVATION = 1000.0 * HOUR
#: Default number of independent replications.
DEFAULT_REPLICATIONS = 3


@dataclass(frozen=True)
class SimulationPlan:
    """How long and how often to simulate.

    Attributes
    ----------
    warmup:
        Transient period discarded from every measure.
    observation:
        Measured window following the transient.
    replications:
        Number of independent replications (each with its own streams).
    confidence:
        Confidence level of the reported intervals.
    wall_clock_budget:
        Optional real-time budget (seconds) per replication; a run
        that exceeds it raises
        :class:`~repro.san.errors.WallClockExceededError` instead of
        hanging its sweep worker. ``None`` (default) disables the
        guard.
    kernel:
        Event kernel the simulator runs on: ``"incremental"``
        (default, dependency-indexed scheduling) or ``"full"`` (the
        full-rescan reference). The two are trajectory-preserving —
        identical results per seed — so this knob only trades speed
        for verifiability.
    strategy:
        Checkpointing-strategy spec (see :mod:`repro.strategies`):
        ``"flat"`` (default, the paper's protocol — untouched model
        parameters, bit-identical to pre-zoo behaviour) or a
        ``"name:key=value,..."`` spec such as
        ``"incremental:compression_ratio=0.5,full_checkpoint_period=4"``.
        Validated and canonicalised (parameters sorted, values
        normalised) on construction, so two spellings of the same
        parameterisation always produce the same cache digest. As a
        plan field it flows into every
        :class:`~repro.backends.base.EvaluationPlan` cache key, task
        JSON payload and run manifest automatically.
    """

    warmup: float = DEFAULT_WARMUP
    observation: float = DEFAULT_OBSERVATION
    replications: int = DEFAULT_REPLICATIONS
    confidence: float = 0.95
    wall_clock_budget: Optional[float] = None
    kernel: str = "incremental"
    strategy: str = "flat"

    #: Every float field, checked for NaN and infinity first.
    _FLOAT_FIELDS = ("warmup", "observation", "confidence", "wall_clock_budget")

    def __post_init__(self) -> None:
        require_finite(self, self._FLOAT_FIELDS)
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.observation <= 0:
            raise ValueError(f"observation must be > 0, got {self.observation}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if not 0 < self.confidence < 1:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.wall_clock_budget is not None and self.wall_clock_budget <= 0:
            raise ValueError(
                f"wall_clock_budget must be > 0, got {self.wall_clock_budget}"
            )
        if self.kernel not in PLAN_KERNELS:
            raise ValueError(
                f"kernel must be one of {PLAN_KERNELS}, got {self.kernel!r}"
            )
        if self.strategy != "flat":
            # Lazy import: repro.strategies depends only on
            # core.parameters, never back on this module. The spec is
            # canonicalised in place so equal parameterisations are
            # equal plans (and equal cache digests); canonicalisation
            # is a projection, so re-validating a canonical spec is a
            # no-op. StrategyError subclasses ValueError, matching the
            # other plan-field failures.
            from ..strategies import canonical_spec

            object.__setattr__(self, "strategy", canonical_spec(self.strategy))

    def resolve_strategy(self):
        """The :class:`~repro.strategies.base.CheckpointStrategy`
        instance this plan's spec names."""
        from ..strategies import resolve

        return resolve(self.strategy)

    @property
    def horizon(self) -> float:
        """Total simulated time per replication."""
        return self.warmup + self.observation


@dataclass
class SimulationResult:
    """Aggregated output of a steady-state study of one configuration.

    Attributes
    ----------
    params:
        The configuration simulated.
    plan:
        The simulation plan used.
    useful_work_fraction:
        95% confidence interval of the useful work fraction.
    total_useful_work:
        Interval of the total useful work (job units).
    breakdown:
        Intervals of the time-fraction diagnostics.
    samples:
        Raw per-replication useful-work fractions.
    counters:
        Ledger counters of the *last* replication (diagnostics).
    event_counts:
        Firings per replication (sanity/diagnostics).
    """

    params: ModelParameters
    plan: SimulationPlan
    useful_work_fraction: ConfidenceInterval
    total_useful_work: ConfidenceInterval
    breakdown: Dict[str, ConfidenceInterval]
    samples: List[float] = field(default_factory=list)
    counters: Optional[LedgerCounters] = None
    event_counts: List[int] = field(default_factory=list)

    def summary(self) -> str:
        """One-line human-readable result."""
        return (
            f"{self.params.n_processors} procs: "
            f"UWF = {self.useful_work_fraction.mean:.4f} "
            f"± {self.useful_work_fraction.half_width:.4f}, "
            f"TUW = {self.total_useful_work.mean:.0f} job units"
        )


def run_single(
    params: ModelParameters,
    plan: SimulationPlan,
    seed: int,
    extra_rewards: Sequence[RewardVariable] = (),
) -> Tuple[Dict[str, float], SimulationOutput, LedgerCounters]:
    """Run one replication.

    Returns each reward's time average, the run's output (its event
    count and kernel stats) and the ledger's counters. Builds a fresh
    model (construction is cheap compared to a run) so replications
    never share mutable state.
    """
    system = build_system(params)
    rewards = [useful_work_reward(system.ledger)]
    rewards.extend(breakdown_rewards())
    rewards.extend(extra_rewards)
    simulator = Simulator(
        system.model,
        ctx=system.ledger,
        streams=StreamRegistry(seed),
        sink=default_sink(),
        kernel=plan.kernel,
    )
    output = simulator.run(
        until=plan.horizon,
        warmup=plan.warmup,
        rewards=rewards,
        wall_clock_budget=plan.wall_clock_budget,
    )
    measures = {name: result.time_average for name, result in output.rewards.items()}
    profiling.record(output.kernel_stats)
    return measures, output, system.ledger.counters


def simulate(
    params: ModelParameters,
    plan: Optional[SimulationPlan] = None,
    seed: int = 0,
    extra_rewards: Sequence[RewardVariable] = (),
) -> SimulationResult:
    """Steady-state study of one configuration.

    Runs ``plan.replications`` independent replications (replication
    ``k`` derives its streams from ``(seed, k)``), discards the
    transient, and reports Student-t confidence intervals.
    """
    plan = plan or SimulationPlan()
    if plan.strategy != "flat":
        params = plan.resolve_strategy().configure(params)
    root = StreamRegistry(seed)
    per_reward: Dict[str, List[float]] = {}
    event_counts: List[int] = []
    counters: Optional[LedgerCounters] = None
    for replication in range(plan.replications):
        replication_seed = root.spawn(replication).seed
        measures, output, counters = run_single(
            params, plan, replication_seed, extra_rewards
        )
        event_counts.append(output.event_count)
        for name, value in measures.items():
            per_reward.setdefault(name, []).append(value)

    uwf_samples = per_reward[USEFUL_WORK]
    uwf = confidence_interval(uwf_samples, plan.confidence)
    tuw = confidence_interval(
        [value * params.n_processors for value in uwf_samples], plan.confidence
    )
    breakdown = {
        name: confidence_interval(values, plan.confidence)
        for name, values in per_reward.items()
        if name != USEFUL_WORK
    }
    return SimulationResult(
        params=params,
        plan=plan,
        useful_work_fraction=uwf,
        total_useful_work=tuw,
        breakdown=breakdown,
        samples=uwf_samples,
        counters=counters,
        event_counts=event_counts,
    )
