"""Metamorphic properties of the SAN executive.

A discrete-event simulator has invariances that hold regardless of the
model's numbers; breaking any of them means the *engine* is wrong even
if every individual result still looks plausible:

* **seed determinism** — the same seed reproduces a run bit-for-bit;
  different seeds produce different trajectories;
* **time-rescaling invariance** — multiplying every rate of an
  all-exponential model by ``c`` and simulating for ``horizon / c``
  is the same process on a rescaled clock, so every *time-average*
  reward is unchanged (and the event count identical, because the
  trajectory is the same sequence of jumps);
* **place-relabeling invariance** — renaming places (activity names,
  and therefore RNG streams, untouched) cannot change any number;
* **merge-of-replications consistency** — running ``2k`` replications
  in one call equals running two ``k``-replication halves with the
  same seed policy and pooling; the per-replication samples are
  byte-identical and the pooled mean is the grand mean.

The checkpointing-strategy zoo (:mod:`repro.strategies`) adds three
strategy-level invariances: every variant must **reduce** to the flat
protocol at its reduction point (incremental at
``compression_ratio=1, full_checkpoint_period=1``; adaptive with its
failure rate frozen so the interval rule lands on a fixed interval),
bit-identically, because strategies parameterise the one model builder
instead of forking it; and the incremental variant's effective
checkpoint overhead must be **monotone** in its compression ratio.

Each check returns a :class:`MetamorphicCheck` so the validation CLI
and the test suite share one implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from ..core.parameters import ModelParameters
from ..core.simulation import SimulationPlan, simulate
from ..san import (
    Arc,
    Case,
    Exponential,
    RewardVariable,
    SANModel,
    Simulator,
    StreamRegistry,
    TimedActivity,
)

__all__ = [
    "MetamorphicCheck",
    "check_seed_determinism",
    "check_time_rescaling",
    "check_place_relabeling",
    "check_merge_of_replications",
    "check_incremental_reduction",
    "check_adaptive_reduction",
    "check_compression_monotonicity",
    "run_metamorphic_checks",
]


@dataclass(frozen=True)
class MetamorphicCheck:
    """Outcome of one engine-invariance check."""

    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        marker = "PASS" if self.passed else "FAIL"
        return f"[{marker}] {self.name}: {self.detail}"


def _chain_model(scale: float = 1.0, prefix: str = "") -> SANModel:
    """A small all-exponential checkpoint-like chain.

    ``scale`` multiplies every rate (the time-rescaling transform);
    ``prefix`` renames the places only (the relabeling transform —
    activity names, and hence their RNG streams, stay fixed).
    """
    model = SANModel("metamorphic_chain")
    executing = model.add_place(f"{prefix}executing", initial=1)
    checkpointing = model.add_place(f"{prefix}checkpointing")
    recovering = model.add_place(f"{prefix}recovering")

    def transition(name: str, rate: float, source, target) -> None:
        model.add_activity(
            TimedActivity(
                name,
                Exponential(rate * scale),
                input_arcs=[Arc(source)],
                cases=[Case(output_arcs=[Arc(target)])],
            )
        )

    transition("trigger", 1.0 / 1800.0, executing, checkpointing)
    transition("ckpt_done", 1.0 / 60.0, checkpointing, executing)
    transition("fail_exec", 1.0 / 20000.0, executing, recovering)
    transition("fail_ckpt", 1.0 / 20000.0, checkpointing, recovering)
    transition("repair", 1.0 / 600.0, recovering, executing)
    return model


def _run_chain(
    seed: int,
    horizon: float,
    warmup: float = 0.0,
    scale: float = 1.0,
    prefix: str = "",
) -> "tuple[Dict[str, float], int]":
    """Time-average place occupancies of the chain and the event count."""
    model = _chain_model(scale=scale, prefix=prefix)
    rewards = [
        RewardVariable(
            state,
            rate=(lambda s, p=f"{prefix}{state}": float(s.tokens(p))),
            reads=[f"{prefix}{state}"],
        )
        for state in ("executing", "checkpointing", "recovering")
    ]
    simulator = Simulator(model, streams=StreamRegistry(seed))
    output = simulator.run(until=horizon, warmup=warmup, rewards=rewards)
    averages = {
        name: result.time_average for name, result in output.rewards.items()
    }
    return averages, output.event_count


def check_seed_determinism(
    seed: int = 0, horizon: float = 200_000.0
) -> MetamorphicCheck:
    """Same seed -> identical run; different seed -> different run."""
    first, events_first = _run_chain(seed, horizon)
    again, events_again = _run_chain(seed, horizon)
    other, _ = _run_chain(seed + 1, horizon)
    identical = first == again and events_first == events_again
    distinct = first != other
    return MetamorphicCheck(
        "seed-determinism",
        identical and distinct,
        (
            f"replay {'bit-identical' if identical else 'DIVERGED'} "
            f"({events_first} events); "
            f"seed {seed + 1} {'differs' if distinct else 'IDENTICAL (suspicious)'}"
        ),
    )


def check_time_rescaling(
    seed: int = 0,
    horizon: float = 200_000.0,
    scale: float = 8.0,
    tolerance: float = 1e-9,
) -> MetamorphicCheck:
    """Scaling every rate by ``c`` and the horizon by ``1/c`` leaves
    every time-average invariant and the jump sequence identical."""
    base, base_events = _run_chain(seed, horizon)
    scaled, scaled_events = _run_chain(seed, horizon / scale, scale=scale)
    worst = max(
        abs(base[name] - scaled[name]) / max(abs(base[name]), 1e-300)
        for name in base
    )
    passed = worst <= tolerance and base_events == scaled_events
    return MetamorphicCheck(
        "time-rescaling",
        passed,
        (
            f"worst relative drift {worst:.2e} over x{scale:g} rescale "
            f"({base_events} vs {scaled_events} events)"
        ),
    )


def check_place_relabeling(
    seed: int = 0, horizon: float = 200_000.0
) -> MetamorphicCheck:
    """Renaming every place must not change a single number."""
    base, base_events = _run_chain(seed, horizon)
    renamed, renamed_events = _run_chain(seed, horizon, prefix="relabeled_")
    passed = base == renamed and base_events == renamed_events
    return MetamorphicCheck(
        "place-relabeling",
        passed,
        (
            "bit-identical under renaming"
            if passed
            else f"diverged: {base} vs {renamed}"
        ),
    )


def check_merge_of_replications(
    seed: int = 0, replications: int = 4
) -> MetamorphicCheck:
    """One ``2k``-replication run equals two pooled ``k``-halves.

    The repository's seed policy derives replication ``k`` of root
    seed ``s`` from ``StreamRegistry(s).spawn(k)`` regardless of how
    replications are grouped into calls, so the per-replication
    samples must be byte-identical and the pooled mean the grand mean.
    """
    params = ModelParameters(n_processors=1024, processors_per_node=8)
    plan = SimulationPlan(warmup=3600.0, observation=40 * 3600.0,
                          replications=replications)
    merged = simulate(params, plan, seed=seed)

    half = replications // 2
    first = simulate(
        params,
        SimulationPlan(warmup=plan.warmup, observation=plan.observation,
                       replications=half),
        seed=seed,
    )
    # The second half re-runs replication indices [half, 2*half) by
    # hand through the same spawn policy.
    root = StreamRegistry(seed)
    second_samples: List[float] = []
    from ..core.simulation import run_single

    for replication in range(half, replications):
        measures, _, _ = run_single(params, plan, root.spawn(replication).seed)
        second_samples.append(measures["useful_work"])

    samples_match = merged.samples == first.samples + second_samples
    pooled_mean = sum(first.samples + second_samples) / replications
    mean_match = math.isclose(
        merged.useful_work_fraction.mean, pooled_mean, rel_tol=1e-12
    )
    return MetamorphicCheck(
        "merge-of-replications",
        samples_match and mean_match,
        (
            f"samples {'identical' if samples_match else 'DIVERGED'}, "
            f"pooled mean {'consistent' if mean_match else 'INCONSISTENT'} "
            f"({merged.useful_work_fraction.mean:.6f} vs {pooled_mean:.6f})"
        ),
    )


#: The small configuration the strategy-reduction checks simulate.
_ZOO_PARAMS = dict(n_processors=1024, processors_per_node=8)
_ZOO_PLAN = dict(warmup=3600.0, observation=40 * 3600.0, replications=4)


def check_incremental_reduction(seed: int = 0) -> MetamorphicCheck:
    """Incremental checkpointing at ``compression_ratio=1,
    full_checkpoint_period=1`` *is* the flat protocol.

    At the reduction point the derived write/read factors are exactly
    1.0 (IEEE-exact multiplications), so the per-replication samples
    must be bit-identical, not merely statistically close.
    """
    params = ModelParameters(**_ZOO_PARAMS)
    flat = simulate(params, SimulationPlan(**_ZOO_PLAN), seed=seed)
    reduced = simulate(
        params,
        SimulationPlan(
            **_ZOO_PLAN,
            strategy="incremental:compression_ratio=1.0,full_checkpoint_period=1",
        ),
        seed=seed,
    )
    passed = flat.samples == reduced.samples
    return MetamorphicCheck(
        "incremental-flat-reduction",
        passed,
        (
            "bit-identical samples at the reduction point"
            if passed
            else f"diverged: {flat.samples} vs {reduced.samples}"
        ),
    )


def check_adaptive_reduction(
    seed: int = 0, target_interval: float = 1800.0
) -> MetamorphicCheck:
    """Adaptive checkpointing with a frozen failure rate reduces to
    the flat protocol at the equivalent fixed interval.

    Freezing the rate at ``2 * delta / target^2`` makes the interval
    rule ``sqrt(2 * delta / rate)`` choose ``target`` (up to ulps);
    simulating flat at exactly the interval the strategy chose must
    then be bit-identical to simulating the strategy itself.
    """
    from ..strategies import resolve

    params = ModelParameters(**_ZOO_PARAMS)
    delta = params.mttq + params.checkpoint_dump_time
    rate = 2.0 * delta / (target_interval * target_interval)
    spec = f"adaptive:failure_rate={rate!r}"
    chosen = resolve(spec).interval_for(params)
    close = math.isclose(chosen, target_interval, rel_tol=1e-9)
    adaptive = simulate(
        params, SimulationPlan(**_ZOO_PLAN, strategy=spec), seed=seed
    )
    flat = simulate(
        params.with_overrides(checkpoint_interval=chosen),
        SimulationPlan(**_ZOO_PLAN),
        seed=seed,
    )
    identical = adaptive.samples == flat.samples
    return MetamorphicCheck(
        "adaptive-flat-reduction",
        close and identical,
        (
            f"chosen interval {chosen:.6f}s "
            f"{'~=' if close else 'FAR FROM'} target {target_interval:g}s; "
            f"samples {'bit-identical' if identical else 'DIVERGED'} "
            "vs flat at that interval"
        ),
    )


def check_compression_monotonicity() -> MetamorphicCheck:
    """The incremental strategy's effective checkpoint dump time is
    monotone non-decreasing in its compression ratio (a smaller delta
    — better compression — can only shrink the write), and exactly the
    flat dump time at ratio 1 with period 1.

    Pure configuration-level arithmetic over a dense grid — no
    simulation — so the check is instant.
    """
    from ..strategies import get_strategy

    params = ModelParameters(**_ZOO_PARAMS)
    flat_dump = params.checkpoint_dump_time
    violations: List[str] = []
    points = 0
    for period in (1, 2, 4, 8, 16):
        previous = None
        for percent in range(5, 101, 5):
            ratio = percent / 100.0
            configured = get_strategy(
                "incremental",
                compression_ratio=ratio,
                full_checkpoint_period=period,
            ).configure(params)
            dump = configured.checkpoint_dump_time
            points += 1
            if dump > flat_dump + 1e-12:
                violations.append(
                    f"c={ratio:g},P={period}: dump {dump:g} exceeds flat "
                    f"{flat_dump:g}"
                )
            if previous is not None and dump < previous - 1e-12:
                violations.append(
                    f"c={ratio:g},P={period}: dump decreased "
                    f"({previous:g} -> {dump:g}) as the ratio grew"
                )
            previous = dump
    exact_at_one = (
        get_strategy(
            "incremental", compression_ratio=1.0, full_checkpoint_period=1
        )
        .configure(params)
        .checkpoint_dump_time
        == flat_dump
    )
    if not exact_at_one:
        violations.append("dump at c=1,P=1 is not exactly the flat dump")
    return MetamorphicCheck(
        "compression-monotonicity",
        not violations,
        (
            f"dump time monotone over {points} (ratio, period) points, "
            "exact flat reduction at c=1,P=1"
            if not violations
            else "; ".join(violations[:3])
        ),
    )


def run_metamorphic_checks(seed: int = 0) -> List[MetamorphicCheck]:
    """Every engine-invariance check at one root seed."""
    return [
        check_seed_determinism(seed),
        check_time_rescaling(seed),
        check_place_relabeling(seed),
        check_merge_of_replications(seed),
        check_incremental_reduction(seed),
        check_adaptive_reduction(seed),
        check_compression_monotonicity(),
    ]
