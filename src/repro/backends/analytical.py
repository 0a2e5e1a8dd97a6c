"""The ``analytical`` backend: renewal-theory closed forms.

Wraps the :mod:`repro.analytical` closed forms (Section 5's
coordination order statistic, the renewal useful-work model that
generalises Young/Daly/Vaidya) behind the backend protocol. Instant
to evaluate and deterministic, at the price of ignoring the dynamics
the SAN model exists for: timeout-abort rounds, correlated-failure
bursts, I/O contention.

The same helpers that translate a :class:`ModelParameters` into the
closed forms' inputs (expected coordination time, blocking checkpoint
overhead) are shared with the ``ctmc`` backend, so the two exact
paths agree on what the abstracted parameters mean.
"""

from __future__ import annotations

from typing import Optional

from ..analytical import coordination as coordination_math
from ..analytical import useful_work as renewal
from ..core.parameters import CoordinationMode, ModelParameters
from .base import (
    observed,
    BackendCapabilities,
    BaseBackend,
    COORDINATION_ONLY_USEFUL_FRACTION,
    EvaluationPlan,
    EvaluationResult,
    MEAN_COORDINATION_TIME,
    MetricValue,
    TOTAL_USEFUL_WORK,
    USEFUL_WORK_FRACTION,
    non_flat_strategy,
)

__all__ = [
    "AnalyticalBackend",
    "expected_coordination_time_of",
    "blocking_checkpoint_overhead",
]


def expected_coordination_time_of(params: ModelParameters) -> float:
    """E[coordination time] implied by the coordination mode.

    ``FIXED`` and ``AGGREGATE_EXPONENTIAL`` both have mean ``mttq``;
    ``MAX_OF_EXPONENTIALS`` is the order statistic ``mttq * H_n`` over
    the coordinating population.
    """
    if params.coordination_mode == CoordinationMode.MAX_OF_EXPONENTIALS:
        return coordination_math.expected_coordination_time(
            params.coordination_population, params.mttq
        )
    return params.mttq


def blocking_checkpoint_overhead(params: ModelParameters) -> float:
    """Expected blocking time per checkpoint: quiesce broadcast +
    coordination + dump (the paper's ``delta``)."""
    return (
        params.quiesce_broadcast_latency
        + expected_coordination_time_of(params)
        + params.checkpoint_dump_time
    )


class AnalyticalBackend(BaseBackend):
    """Closed-form evaluation (no simulation, no state space)."""

    id = "analytical"
    backend_version = 1
    capabilities = BackendCapabilities(
        metrics=frozenset(
            {
                USEFUL_WORK_FRACTION,
                TOTAL_USEFUL_WORK,
                MEAN_COORDINATION_TIME,
                COORDINATION_ONLY_USEFUL_FRACTION,
            }
        ),
        deterministic=True,
        exact=False,
        max_nodes=None,
        description=(
            "renewal-theory closed forms (Young/Daly-style useful work, "
            "max-of-exponentials coordination law); instant, ignores "
            "timeouts and correlated failures"
        ),
    )

    def supports(
        self, params: ModelParameters, plan: EvaluationPlan
    ) -> Optional[str]:
        """Closed forms exist only for the renewal-friendly slice of
        the parameter space when useful work is requested."""
        spec = non_flat_strategy(plan)
        if spec is not None:
            return (
                f"the closed forms model only the flat coordinated "
                f"checkpoint protocol; strategy {spec!r} needs a sampled "
                f"SAN backend (san-sim)"
            )
        wants_work = any(
            metric in (USEFUL_WORK_FRACTION, TOTAL_USEFUL_WORK)
            for metric in plan.metrics
        )
        if not wants_work:
            return None
        if params.timeout is not None:
            return (
                "the renewal model has no closed form for timeout-abort "
                "coordination rounds"
            )
        if params.prob_correlated_failure > 0:
            return "correlated failure bursts break the renewal assumption"
        if (
            params.generic_correlated_coefficient > 0
            and params.generic_correlated_mode != "uniform"
        ):
            return (
                "modulated generic correlated failures are not a "
                "constant-rate process"
            )
        return None

    @observed
    def evaluate(
        self, params: ModelParameters, plan: EvaluationPlan
    ) -> EvaluationResult:
        """Evaluate the requested closed forms exactly."""
        self.check(params, plan)
        overhead = blocking_checkpoint_overhead(params)
        mtbf = params.system_mtbf / params.generic_uniform_multiplier
        metrics = {}
        for name in plan.metrics:
            if name in (USEFUL_WORK_FRACTION, TOTAL_USEFUL_WORK):
                uwf = renewal.useful_work_fraction(
                    params.checkpoint_interval, overhead, mtbf, params.mttr
                )
                metrics[USEFUL_WORK_FRACTION] = MetricValue(mean=uwf)
                metrics[TOTAL_USEFUL_WORK] = MetricValue(
                    mean=uwf * params.n_processors
                )
            elif name == MEAN_COORDINATION_TIME:
                metrics[name] = MetricValue(
                    mean=expected_coordination_time_of(params)
                )
            elif name == COORDINATION_ONLY_USEFUL_FRACTION:
                # Figure 5's closed form, generalised to every
                # coordination mode via the mode's expected quiesce time.
                interval = params.checkpoint_interval
                metrics[name] = MetricValue(
                    mean=interval / (interval + overhead)
                )
        details = {
            "blocking_overhead": overhead,
            "effective_system_mtbf": mtbf,
        }
        return self.result(metrics=metrics, details=details)
