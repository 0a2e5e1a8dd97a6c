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
from typing import Dict, List, Optional, Sequence

from ..obs.trace import NullSink, default_sink
from ..san import (
    DEFAULT_BATCH_SIZE,
    BatchedSimulator,
    ConfidenceInterval,
    RewardVariable,
    Simulator,
    SinkTracer,
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
    "simulate_batched",
    "simulate_batch_means",
    "run_single",
]

#: Kernels a SimulationPlan may select. The scalar pair is
#: trajectory-preserving (bit-identical per seed); ``batched``
#: advances whole replication batches in numpy lockstep and is
#: statistically equivalent but not bit-identical.
PLAN_KERNELS = ("incremental", "full", "batched")

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
        (default, dependency-indexed scheduling), ``"full"`` (the
        full-rescan reference) or ``"batched"`` (structure-of-arrays
        lockstep over whole replication batches). The scalar pair is
        trajectory-preserving — identical results per seed — while
        ``batched`` preserves the seed policy (per-replication child
        streams) but schedules draws in a different order, so its
        results are statistically equivalent rather than
        bit-identical; ``repro validate`` holds the two within
        tolerance bands. The batched kernel does not enforce
        ``wall_clock_budget``.
    batch_size:
        Replications advanced per lockstep batch (``batched`` kernel
        only; ``None`` = ``min(replications, 64)``).
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
    batch_size: Optional[int] = None
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
        if self.batch_size is not None:
            if self.kernel != "batched":
                raise ValueError(
                    f"batch_size only applies to the batched kernel, "
                    f"got kernel={self.kernel!r}"
                )
            if self.batch_size < 1:
                raise ValueError(
                    f"batch_size must be >= 1, got {self.batch_size}"
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
) -> Dict[str, float]:
    """Run one replication; return each reward's time average.

    Builds a fresh model (construction is cheap compared to a run) so
    replications never share mutable state.
    """
    system = build_system(params)
    rewards = [useful_work_reward(system.ledger)]
    rewards.extend(breakdown_rewards())
    rewards.extend(extra_rewards)
    simulator = Simulator(
        system.model,
        ctx=system.ledger,
        streams=StreamRegistry(seed),
        kernel=plan.kernel,
    )
    # Bridge firings into the process trace sink only when a driver
    # installed a real one; the NullSink default keeps the executive on
    # its no-tracer fast path (one isinstance check, here, per run).
    sink = default_sink()
    if not isinstance(sink, NullSink):
        simulator.tracer = SinkTracer(sink)
    output = simulator.run(
        until=plan.horizon,
        warmup=plan.warmup,
        rewards=rewards,
        wall_clock_budget=plan.wall_clock_budget,
    )
    measures = {name: result.time_average for name, result in output.rewards.items()}
    measures["_events"] = float(output.event_count)
    # Stash the counters and kernel stats for the caller (not rewards;
    # underscore measure keys are popped by `simulate` and must stay
    # floats, so richer diagnostics ride function attributes instead).
    run_single.last_counters = system.ledger.counters  # type: ignore[attr-defined]
    run_single.last_kernel_stats = output.kernel_stats  # type: ignore[attr-defined]
    profiling.record(output.kernel_stats)
    return measures


def simulate_batch_means(
    params: ModelParameters,
    warmup: float = DEFAULT_WARMUP,
    batch_length: float = 200.0 * HOUR,
    batches: int = 20,
    seed: int = 0,
    confidence: float = 0.95,
) -> SimulationResult:
    """Single-long-run steady-state estimation by batch means.

    The classical alternative to independent replications: one
    trajectory of ``warmup + batches * batch_length``, with the
    post-transient window split into contiguous batches whose averages
    are treated as approximately independent. Cheaper than
    replications (one transient instead of many) at the price of
    residual batch correlation; the tests verify both estimators
    agree.
    """
    if batches < 2:
        raise ValueError(f"need at least 2 batches, got {batches}")
    if batch_length <= 0:
        raise ValueError(f"batch_length must be > 0, got {batch_length}")
    system = build_system(params)
    rewards = [useful_work_reward(system.ledger)]
    rewards.extend(breakdown_rewards())
    simulator = Simulator(system.model, ctx=system.ledger, streams=StreamRegistry(seed))
    # Burn the transient without measuring.
    if warmup > 0:
        simulator.run(until=warmup, warmup=0.0, rewards=())
    per_reward: Dict[str, List[float]] = {}
    event_counts: List[int] = []
    for batch in range(batches):
        until = warmup + (batch + 1) * batch_length
        output = simulator.run(until=until, warmup=0.0, rewards=rewards)
        profiling.record(output.kernel_stats)
        event_counts.append(output.event_count)
        for name, result in output.rewards.items():
            per_reward.setdefault(name, []).append(result.time_average)

    uwf_samples = per_reward[USEFUL_WORK]
    uwf = confidence_interval(uwf_samples, confidence)
    tuw = confidence_interval(
        [value * params.n_processors for value in uwf_samples], confidence
    )
    breakdown = {
        name: confidence_interval(values, confidence)
        for name, values in per_reward.items()
        if name != USEFUL_WORK
    }
    plan = SimulationPlan(
        warmup=warmup,
        observation=batches * batch_length,
        replications=1,
        confidence=confidence,
    )
    return SimulationResult(
        params=params,
        plan=plan,
        useful_work_fraction=uwf,
        total_useful_work=tuw,
        breakdown=breakdown,
        samples=uwf_samples,
        counters=system.ledger.counters,
        event_counts=event_counts,
    )


def simulate_batched(
    params: ModelParameters,
    plan: SimulationPlan,
    seed: int = 0,
    extra_rewards: Sequence[RewardVariable] = (),
) -> SimulationResult:
    """Steady-state study on the batched structure-of-arrays kernel.

    The replication set is split into lockstep batches of
    ``plan.batch_size`` (default ``min(replications, 64)``). Row ``k``
    of the study gets exactly the stream registry replication ``k``
    would get under :func:`simulate` — ``StreamRegistry(seed).spawn(k)``
    — so results are invariant to the batch split and the per-reward
    aggregation matches the scalar driver sample for sample
    (statistically; trajectories are not bit-identical to the scalar
    kernels).
    """
    if plan.strategy != "flat":
        # configure() is idempotent (it sets absolute values), so the
        # simulate() -> simulate_batched() path applying it twice is
        # harmless.
        params = plan.resolve_strategy().configure(params)
    root = StreamRegistry(seed)
    batch_size = plan.batch_size or min(plan.replications, DEFAULT_BATCH_SIZE)
    per_reward: Dict[str, List[float]] = {}
    event_counts: List[int] = []
    counters: Optional[LedgerCounters] = None
    for start in range(0, plan.replications, batch_size):
        replications = range(start, min(start + batch_size, plan.replications))
        systems = [build_system(params) for _ in replications]
        streams = [root.spawn(k) for k in replications]
        rewards = [useful_work_reward(systems[0].ledger)]
        rewards.extend(breakdown_rewards())
        rewards.extend(extra_rewards)
        simulator = BatchedSimulator(
            [system.model for system in systems],
            streams,
            ctxs=[system.ledger for system in systems],
        )
        output = simulator.run(
            until=plan.horizon, warmup=plan.warmup, rewards=rewards
        )
        simulate_batched.last_kernel_stats = output.kernel_stats  # type: ignore[attr-defined]
        profiling.record(output.kernel_stats)
        event_counts.extend(output.event_counts)
        counters = systems[-1].ledger.counters
        for row_rewards in output.rewards:
            for name, result in row_rewards.items():
                per_reward.setdefault(name, []).append(result.time_average)

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


def simulate(
    params: ModelParameters,
    plan: Optional[SimulationPlan] = None,
    seed: int = 0,
    extra_rewards: Sequence[RewardVariable] = (),
) -> SimulationResult:
    """Steady-state study of one configuration.

    Runs ``plan.replications`` independent replications (replication
    ``k`` derives its streams from ``(seed, k)``), discards the
    transient, and reports Student-t confidence intervals. A plan with
    ``kernel="batched"`` dispatches to :func:`simulate_batched`, which
    advances whole replication batches in numpy lockstep.
    """
    plan = plan or SimulationPlan()
    if plan.strategy != "flat":
        params = plan.resolve_strategy().configure(params)
    if plan.kernel == "batched":
        return simulate_batched(params, plan, seed, extra_rewards)
    root = StreamRegistry(seed)
    per_reward: Dict[str, List[float]] = {}
    event_counts: List[int] = []
    counters: Optional[LedgerCounters] = None
    for replication in range(plan.replications):
        replication_seed = root.spawn(replication).seed
        measures = run_single(params, plan, replication_seed, extra_rewards)
        event_counts.append(int(measures.pop("_events")))
        counters = getattr(run_single, "last_counters", None)
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
