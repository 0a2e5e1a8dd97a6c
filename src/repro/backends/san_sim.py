"""The ``san-sim`` backend: the full SAN discrete-event simulation.

Wraps :func:`repro.core.simulation.simulate` — the paper's primary
evaluation path — behind the backend protocol. This backend covers
the *entire* parameter space (timeouts, correlated failures, every
coordination mode) and reports confidence intervals; its cost is
simulation time.

Two registrations share this class: ``san-sim`` (the default,
incremental event kernel) and ``san-sim-full`` (the full-rescan
reference kernel). Both kernels are trajectory-preserving, so the
two backends produce bit-identical results for the same seed; the
second exists for A/B verification through the same interface the
figures use.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..core.parameters import ModelParameters
from ..core.simulation import simulate
from .base import (
    observed,
    BackendCapabilities,
    BaseBackend,
    EvaluationPlan,
    EvaluationResult,
    MetricValue,
    TOTAL_USEFUL_WORK,
    USEFUL_WORK_FRACTION,
)

__all__ = ["SanSimulationBackend"]

#: Time-breakdown diagnostics the simulation reports alongside UWF.
_BREAKDOWN_METRICS = (
    "frac_execution",
    "frac_checkpointing",
    "frac_recovering",
    "frac_rebooting",
    "frac_corr_window",
)


class SanSimulationBackend(BaseBackend):
    """Stochastic simulation of the composed SAN model.

    ``kernel`` pins the event kernel for every evaluation
    (``"incremental"`` or ``"full"``); ``None`` leaves the choice to
    ``plan.simulation.kernel``.
    """

    backend_version = 1

    def __init__(self, id: str = "san-sim", kernel: Optional[str] = None) -> None:
        """Create the backend under the given registry id, optionally
        pinning the event kernel."""
        self.id = id
        self.kernel = kernel
        kernel_label = kernel or "plan-selected"
        self.capabilities = BackendCapabilities(
            metrics=frozenset(
                {USEFUL_WORK_FRACTION, TOTAL_USEFUL_WORK, *_BREAKDOWN_METRICS}
            ),
            deterministic=False,
            exact=False,
            max_nodes=None,
            description=(
                "discrete-event simulation of the full SAN model "
                f"({kernel_label} kernel); covers the whole parameter space, "
                "reports 95% confidence intervals"
            ),
        )

    @observed
    def evaluate(
        self, params: ModelParameters, plan: EvaluationPlan
    ) -> EvaluationResult:
        """Run ``plan.simulation.replications`` replications rooted at
        ``plan.seed`` and report every metric the model measures."""
        self.check(params, plan)
        sim_plan = plan.simulation
        if self.kernel is not None and sim_plan.kernel != self.kernel:
            sim_plan = replace(sim_plan, kernel=self.kernel)
        outcome = simulate(params, sim_plan, seed=plan.seed)
        metrics = {
            USEFUL_WORK_FRACTION: MetricValue(
                mean=outcome.useful_work_fraction.mean,
                half_width=outcome.useful_work_fraction.half_width,
            ),
            TOTAL_USEFUL_WORK: MetricValue(
                mean=outcome.total_useful_work.mean,
                half_width=outcome.total_useful_work.half_width,
            ),
        }
        for name, interval in outcome.breakdown.items():
            metrics[name] = MetricValue(
                mean=interval.mean, half_width=interval.half_width
            )
        details = {
            "replications": float(sim_plan.replications),
            "events": float(sum(outcome.event_counts)),
        }
        counters = outcome.counters
        if counters is not None:
            details["failures"] = float(counters.failures)
            details["recoveries"] = float(counters.recoveries)
        return self.result(metrics=metrics, details=details)
