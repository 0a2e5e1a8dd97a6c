"""Differential testing of evaluation backends against each other.

The paper's own validation argument is differential: the same
configuration answered by independent implementations (full SAN
simulation, exact CTMC solve, renewal closed forms, message-level
cluster simulation) must agree. A :class:`DifferentialCase` names one
such configuration — model parameters, an evaluation plan, the metric
under test, the participating backends, and a
:class:`~repro.validate.stats.TolerancePolicy` — and
:func:`run_case` evaluates every capable backend and compares all
pairs with the statistics appropriate to each pairing (see
:mod:`repro.validate.stats`).

Backends whose :meth:`supports` veto the configuration are skipped and
reported, not silently dropped. A backend that reports a single
replication (the cluster trajectory) yields INCONCLUSIVE pairs — the
n=1 rule from the statistics layer means it can never certify
agreement, but it also cannot fail the suite on no variance evidence.

Mutation testing hook: :func:`run_case` accepts a ``perturb`` map of
``field -> factor`` that is applied **only to the sampled backends**.
The exact oracles keep the reference configuration, so any real
perturbation must surface as a DISAGREE — this is how the CI smoke
test proves the differential harness has teeth.

The strategy zoo rides on the same machinery: a participant label may
carry a checkpointing-strategy suffix, ``"backend@strategyspec"``
(e.g. ``"san-sim@incremental:compression_ratio=1,..."``), in which
case that participant evaluates under a plan whose
``simulation.strategy`` is the suffix — same backend code, different
protocol. Perturbation keys prefixed ``strategy.`` multiply the named
spec parameter of every sampled strategy-suffixed participant; plain
(flat) participants do not carry the parameter, so they stay the
honest reference, exactly like the exact oracles do for ordinary
field perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..backends import (
    Backend,
    EvaluationPlan,
    EvaluationResult,
    USEFUL_WORK_FRACTION,
    get_backend,
)
from ..core.parameters import HOUR, MINUTE, ModelParameters
from ..core.simulation import SimulationPlan
from .stats import (
    AGREE,
    DISAGREE,
    INCONCLUSIVE,
    Comparison,
    SampleSummary,
    TolerancePolicy,
    compare_summaries,
)

__all__ = [
    "DifferentialCase",
    "PairComparison",
    "CaseResult",
    "apply_perturbation",
    "parse_perturbation",
    "split_backend_label",
    "filter_cases_by_backends",
    "summarize_result",
    "run_case",
    "run_cases",
    "default_cases",
]


@dataclass(frozen=True)
class DifferentialCase:
    """One cross-backend agreement obligation.

    Attributes
    ----------
    name:
        Stable identifier; also keys the golden baseline file.
    description:
        What this configuration exercises, for reports.
    parameters:
        The model configuration all backends answer.
    metric:
        The metric compared across backends.
    backends:
        Participant labels: backend ids, optionally suffixed with a
        checkpointing-strategy spec as ``"backend@strategyspec"``
        (subject to each backend's own ``supports`` veto at this
        configuration and strategy).
    plan:
        Evaluation effort for the stochastic backends.
    policy:
        The tolerance policy for every pairwise comparison.
    """

    name: str
    description: str
    parameters: ModelParameters
    backends: Tuple[str, ...]
    plan: EvaluationPlan = field(
        default_factory=lambda: EvaluationPlan(metrics=(USEFUL_WORK_FRACTION,))
    )
    metric: str = USEFUL_WORK_FRACTION
    policy: TolerancePolicy = field(default_factory=TolerancePolicy)

    def scaled(self, factor: float) -> "DifferentialCase":
        """The same case with simulation effort scaled by ``factor``
        (observation window and replications; minimums keep the
        statistics well-defined)."""
        if factor <= 0:
            raise ValueError(f"scale factor must be > 0, got {factor}")
        sim = self.plan.simulation
        # replace() keeps every other effort knob — kernel,
        # wall_clock_budget, confidence — so scaling a full-kernel case
        # still runs on the full kernel.
        scaled_sim = replace(
            sim,
            observation=max(sim.observation * factor, 1 * HOUR),
            replications=max(int(round(sim.replications * factor)), 4),
        )
        return replace(self, plan=replace(self.plan, simulation=scaled_sim))


@dataclass(frozen=True)
class PairComparison:
    """One backend pair's comparison inside a case."""

    backend_a: str
    backend_b: str
    summary_a: SampleSummary
    summary_b: SampleSummary
    comparison: Comparison

    def __str__(self) -> str:
        return f"{self.backend_a} vs {self.backend_b}: {self.comparison}"


@dataclass(frozen=True)
class CaseResult:
    """Everything one differential case produced."""

    case: DifferentialCase
    seed: int
    summaries: Dict[str, SampleSummary]
    pairs: List[PairComparison]
    skipped: Dict[str, str]
    perturbed: Tuple[str, ...] = ()

    @property
    def verdict(self) -> str:
        """DISAGREE if any pair disagrees, else AGREE if at least one
        pair positively agrees, else INCONCLUSIVE."""
        verdicts = {pair.comparison.verdict for pair in self.pairs}
        if DISAGREE in verdicts:
            return DISAGREE
        if AGREE in verdicts:
            return AGREE
        return INCONCLUSIVE

    @property
    def passed(self) -> bool:
        """A case passes unless some pair positively disagrees.

        INCONCLUSIVE pairs (an unvalidated n=1 side) are reported but
        cannot fail a case — nor can they certify it; certification
        comes from the pairs with real variance information.
        """
        return self.verdict != DISAGREE


def split_backend_label(label: str) -> Tuple[str, Optional[str]]:
    """Split a participant label into ``(backend_id, strategy_spec)``.

    ``"san-sim"`` is ``("san-sim", None)`` — the flat protocol;
    ``"san-sim@incremental:compression_ratio=1"`` names the same
    backend running under that strategy spec.
    """
    backend_id, _, strategy = label.partition("@")
    return backend_id, (strategy or None)


def filter_cases_by_backends(
    cases: Sequence[DifferentialCase], backends: Sequence[str]
) -> List[DifferentialCase]:
    """Cases restricted to participants whose **base** backend id is
    in ``backends`` (a strategy-suffixed participant counts under the
    id before its ``@``).

    A case left with fewer than two participants has nothing to
    compare and is dropped. Unknown backend ids are a loud
    :class:`ValueError` — a typo'd ``--backends`` silently matching
    nothing would look like a green run.
    """
    from ..backends import backend_ids

    allowed = set(backends)
    known = set(backend_ids())
    unknown = sorted(allowed - known)
    if unknown:
        raise ValueError(
            f"unknown backend(s) in filter: {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}"
        )
    filtered: List[DifferentialCase] = []
    for case in cases:
        keep = tuple(
            label
            for label in case.backends
            if split_backend_label(label)[0] in allowed
        )
        if len(keep) >= 2:
            filtered.append(replace(case, backends=keep))
    return filtered


def parse_perturbation(spec: str) -> "Dict[str, float]":
    """Parse ``FIELD=FACTOR[,FIELD=FACTOR...]`` mutation specs."""
    perturb: Dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"perturbation {part!r} is not of the form FIELD=FACTOR"
            )
        name, _, factor = part.partition("=")
        perturb[name.strip()] = float(factor)
    return perturb


def apply_perturbation(
    params: ModelParameters, perturb: Mapping[str, float]
) -> ModelParameters:
    """``params`` with each named numeric field multiplied by its
    factor; unknown fields are a loud error, not a silent no-op."""
    changes: Dict[str, float] = {}
    for name, factor in perturb.items():
        if not hasattr(params, name):
            raise ValueError(
                f"unknown parameter field {name!r} in perturbation"
            )
        current = getattr(params, name)
        if not isinstance(current, (int, float)) or isinstance(current, bool):
            raise ValueError(
                f"parameter field {name!r} is not numeric; cannot perturb"
            )
        changes[name] = type(current)(current * factor)
    return replace(params, **changes)


#: Perturbation keys with this prefix target strategy spec parameters
#: instead of model-parameter fields.
_STRATEGY_PERTURB_PREFIX = "strategy."


def _split_perturbation(
    perturb: Optional[Mapping[str, float]],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``perturb`` split into (model-field, strategy-parameter) maps,
    with unknown strategy parameters rejected up front."""
    params: Dict[str, float] = {}
    strategy: Dict[str, float] = {}
    for key, factor in (perturb or {}).items():
        if key.startswith(_STRATEGY_PERTURB_PREFIX):
            strategy[key[len(_STRATEGY_PERTURB_PREFIX):]] = factor
        else:
            params[key] = factor
    if strategy:
        from ..strategies import all_strategies

        known: set = set()
        for instance in all_strategies():
            known.update(instance.capabilities.parameters)
        unknown = sorted(set(strategy) - known)
        if unknown:
            raise ValueError(
                f"unknown strategy parameter(s) in perturbation: "
                f"{', '.join('strategy.' + name for name in unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
    return params, strategy


def _perturb_strategy_spec(
    spec: str, perturb: Mapping[str, float]
) -> str:
    """``spec`` with each named strategy parameter multiplied by its
    factor (value types are preserved, so an integer
    ``full_checkpoint_period`` stays an integer). Parameters the
    strategy does not carry are left alone — an adaptive participant
    is unmoved by ``strategy.compression_ratio``."""
    from ..strategies import format_spec, parse_spec, resolve

    name, _ = parse_spec(spec)
    params = resolve(spec).params_dict()
    changed = False
    for key, factor in perturb.items():
        if key not in params:
            continue
        current = params[key]
        params[key] = type(current)(current * factor)
        changed = True
    if not changed:
        return spec
    return format_spec(name, params)


def summarize_result(
    backend: Backend, result: EvaluationResult, metric: str
) -> SampleSummary:
    """A backend's answer in statistically comparable form.

    Exact and closed-form backends yield zero-sampling-error values.
    Sampled backends yield a mean/half-width/n summary; the
    replication count comes from ``details["replications"]`` and a
    missing count is treated as n=1 — an *unvalidated* interval that
    the comparison layer refuses to certify with.
    """
    value = result.metric(metric)
    if backend.capabilities.kind in ("exact", "closed-form"):
        return SampleSummary.exact_value(value.mean)
    samples = int(result.details.get("replications", 1))
    return SampleSummary(
        mean=value.mean,
        half_width=value.half_width,
        samples=samples,
        validated=samples >= 2,
    )


def run_case(
    case: DifferentialCase,
    seed: int = 0,
    perturb: Optional[Mapping[str, float]] = None,
) -> CaseResult:
    """Evaluate one case on every participating backend and compare
    all pairs.

    Each capable backend answers once, inline, through
    ``backend.evaluate`` on the case's plan seeded with ``seed``.
    ``perturb`` mutates the configuration seen by the **sampled**
    backends only; the exact oracles answer the reference
    configuration, so a perturbation that matters must produce a
    DISAGREE somewhere.
    """
    param_perturb, strategy_perturb = _split_perturbation(perturb)
    summaries: Dict[str, SampleSummary] = {}
    skipped: Dict[str, str] = {}
    perturbed: List[str] = []

    for label in case.backends:
        backend_id, strategy_spec = split_backend_label(label)
        backend = get_backend(backend_id)
        if not backend.capabilities.supports_metric(case.metric):
            skipped[label] = f"does not produce metric {case.metric!r}"
            continue
        sampled = backend.capabilities.kind == "sampled"
        params = case.parameters
        if param_perturb and sampled:
            params = apply_perturbation(params, param_perturb)
            perturbed.append(label)
        base_plan = case.plan
        if strategy_spec is not None:
            if strategy_perturb and sampled:
                mutated = _perturb_strategy_spec(strategy_spec, strategy_perturb)
                if mutated != strategy_spec and label not in perturbed:
                    perturbed.append(label)
                strategy_spec = mutated
            base_plan = replace(
                case.plan,
                simulation=replace(case.plan.simulation, strategy=strategy_spec),
            )
        plan = base_plan.with_seed(seed)
        reason = backend.supports(params, plan)
        if reason is not None:
            skipped[label] = reason
            continue
        summaries[label] = summarize_result(
            backend, backend.evaluate(params, plan), case.metric
        )

    pairs = [
        PairComparison(
            backend_a=a,
            backend_b=b,
            summary_a=summaries[a],
            summary_b=summaries[b],
            comparison=compare_summaries(summaries[a], summaries[b], case.policy),
        )
        for a, b in combinations(sorted(summaries), 2)
    ]
    return CaseResult(
        case=case,
        seed=seed,
        summaries=summaries,
        pairs=pairs,
        skipped=skipped,
        perturbed=tuple(perturbed),
    )


def run_cases(
    cases: Sequence[DifferentialCase],
    seed: int = 0,
    perturb: Optional[Mapping[str, float]] = None,
) -> List[CaseResult]:
    """Every case at one root seed."""
    return [run_case(case, seed=seed, perturb=perturb) for case in cases]


def default_cases(scale: float = 1.0) -> List[DifferentialCase]:
    """The standing differential obligations.

    Configurations are chosen so the stochastic backends see real
    variance (failures actually occur inside the observation window)
    while each case stays in the sub-second-to-seconds range;
    tolerances follow the repository-wide 2% modeling band the
    integration suite already uses. ``scale`` shrinks or grows the
    simulation effort uniformly (the CI smoke uses ``scale < 1``).
    """
    exact_policy = TolerancePolicy(alpha=0.01, rel_tolerance=0.0,
                                   abs_tolerance=0.02)
    # Strategy-zoo configurations. The incremental case checkpoints
    # every 15 minutes so the dump overhead is a large enough slice of
    # the renewal cycle for the strategy.* mutation smoke to surface
    # as a statistically unambiguous DISAGREE.
    incremental_params = ModelParameters(
        n_processors=2048, processors_per_node=8,
        checkpoint_interval=15 * MINUTE,
    )
    adaptive_params = ModelParameters(n_processors=2048, processors_per_node=8)
    # Freeze the adaptive strategy's failure-rate input at
    # 2*delta/interval^2, the rate at which its optimal-interval rule
    # sqrt(2*delta/rate) lands exactly on the flat case's 30-minute
    # interval — the variant then reduces to the flat protocol up to
    # floating-point ulps in the chosen interval.
    _delta = adaptive_params.mttq + adaptive_params.checkpoint_dump_time
    _interval = adaptive_params.checkpoint_interval
    adaptive_frozen_rate = 2.0 * _delta / (_interval * _interval)
    cases = [
        DifferentialCase(
            name="san-vs-exact-small",
            description=(
                "1024 processors, default rates: full SAN simulation "
                "against the exact CTMC solve and the renewal closed form"
            ),
            parameters=ModelParameters(
                n_processors=1024, processors_per_node=8
            ),
            backends=("san-sim", "ctmc", "analytical"),
            plan=EvaluationPlan(
                metrics=(USEFUL_WORK_FRACTION,),
                simulation=SimulationPlan(
                    warmup=2 * HOUR,
                    observation=300 * HOUR,
                    replications=12,
                ),
            ),
            policy=exact_policy,
        ),
        DifferentialCase(
            name="san-vs-exact-stressed",
            description=(
                "4096 processors (failure-dominated regime): the "
                "abstraction gap between the SAN and the 3-state chain "
                "must stay inside the modeling band"
            ),
            parameters=ModelParameters(
                n_processors=4096, processors_per_node=8
            ),
            backends=("san-sim", "ctmc", "analytical"),
            plan=EvaluationPlan(
                metrics=(USEFUL_WORK_FRACTION,),
                simulation=SimulationPlan(
                    warmup=2 * HOUR,
                    observation=300 * HOUR,
                    replications=12,
                ),
            ),
            policy=exact_policy,
        ),
        DifferentialCase(
            name="kernel-equivalence",
            description=(
                "incremental vs full-rebuild event kernel on the same "
                "seeds — the two kernels must be sample-identical, so "
                "Welch must see a zero difference"
            ),
            parameters=ModelParameters(
                n_processors=2048, processors_per_node=8
            ),
            backends=("san-sim", "san-sim-full"),
            plan=EvaluationPlan(
                metrics=(USEFUL_WORK_FRACTION,),
                simulation=SimulationPlan(
                    warmup=1 * HOUR,
                    observation=120 * HOUR,
                    replications=8,
                ),
            ),
            policy=TolerancePolicy(alpha=0.01, rel_tolerance=0.0,
                                   abs_tolerance=1e-12),
        ),
        DifferentialCase(
            name="cluster-consistency",
            description=(
                "message-level cluster trajectory against the exact "
                "oracles; single-trajectory output is unvalidated, so "
                "this case documents the INCONCLUSIVE path and bounds "
                "gross drift via the SAN pairs"
            ),
            parameters=ModelParameters(
                n_processors=512, processors_per_node=8
            ),
            backends=("san-sim", "ctmc", "cluster"),
            plan=EvaluationPlan(
                metrics=(USEFUL_WORK_FRACTION,),
                simulation=SimulationPlan(
                    warmup=2 * HOUR,
                    observation=200 * HOUR,
                    replications=8,
                ),
                duration=200 * HOUR,
            ),
            policy=exact_policy,
        ),
        DifferentialCase(
            name="incremental-vs-flat",
            description=(
                "incremental checkpointing at its reduction point "
                "(compression_ratio=1, full_checkpoint_period=1) against "
                "the flat protocol on the same backend and seeds — the "
                "write/read factors are exactly 1.0, so the samples must "
                "be bit-identical, like the kernel-equivalence case"
            ),
            parameters=incremental_params,
            backends=(
                "san-sim",
                "san-sim@incremental:compression_ratio=1,"
                "full_checkpoint_period=1",
            ),
            plan=EvaluationPlan(
                metrics=(USEFUL_WORK_FRACTION,),
                simulation=SimulationPlan(
                    warmup=1 * HOUR,
                    observation=120 * HOUR,
                    replications=8,
                ),
            ),
            policy=TolerancePolicy(alpha=0.01, rel_tolerance=0.0,
                                   abs_tolerance=1e-12),
        ),
        DifferentialCase(
            name="adaptive-vs-flat",
            description=(
                "failure-rate-adaptive checkpoint interval with the rate "
                "frozen at 2*delta/interval^2, so the chosen interval "
                "equals the flat case's 30 minutes up to ulps; must agree "
                "within the modeling band with flat san-sim and the exact "
                "CTMC anchor (the adaptive participant runs on san-sim "
                "because the exact backends model only the flat protocol)"
            ),
            parameters=adaptive_params,
            backends=(
                "san-sim",
                f"san-sim@adaptive:failure_rate={adaptive_frozen_rate!r}",
                "ctmc",
            ),
            plan=EvaluationPlan(
                metrics=(USEFUL_WORK_FRACTION,),
                simulation=SimulationPlan(
                    warmup=2 * HOUR,
                    observation=300 * HOUR,
                    replications=12,
                ),
            ),
            policy=exact_policy,
        ),
    ]
    if scale != 1.0:
        cases = [case.scaled(scale) for case in cases]
    return cases
