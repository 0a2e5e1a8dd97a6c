"""The ``ctmc`` backend: exact steady state of an exponential sub-model.

The full checkpoint model mixes deterministic latencies with a
continuous work ledger, so it has no tractable CTMC. This backend
solves the *exponential abstraction* the paper uses for exact
cross-checks (and that ``tests/integration`` validates three ways): a
three-state chain

    executing --(trigger)--> checkpointing --(done)--> executing

with failures from both states into ``recovering`` and an exponential
repair back to ``executing``. All rates are derived from the same
:class:`~repro.core.parameters.ModelParameters` the other backends
consume — mean checkpoint interval, mean blocking overhead (broadcast
+ coordination + dump, shared with the ``analytical`` backend), the
scaled system failure rate, and the MTTR.

The state probabilities are exact for the abstraction; the useful-work
fraction adds a first-order rollback correction (work since the last
commit is lost on failure), documented on :meth:`CTMCBackend.evaluate`.
"""

from __future__ import annotations

from typing import Optional

from ..core.parameters import ModelParameters
from ..san import (
    Arc,
    Case,
    Exponential,
    SANModel,
    StateSpaceGenerator,
    TimedActivity,
)
from .analytical import blocking_checkpoint_overhead
from .base import (
    observed,
    BackendCapabilities,
    BaseBackend,
    EvaluationPlan,
    EvaluationResult,
    MetricValue,
    TOTAL_USEFUL_WORK,
    USEFUL_WORK_FRACTION,
    non_flat_strategy,
)

__all__ = ["CTMCBackend"]

#: Place names of the sub-model's three macro states.
_EXECUTING = "executing"
_CHECKPOINTING = "checkpointing"
_RECOVERING = "recovering"


def _transition(name: str, rate: float, source, target) -> TimedActivity:
    """One exponential state transition of the chain."""
    return TimedActivity(
        name,
        Exponential(rate),
        input_arcs=[Arc(source)],
        cases=[Case(output_arcs=[Arc(target)])],
    )


class CTMCBackend(BaseBackend):
    """Exact steady-state solve of the exponential checkpoint chain."""

    id = "ctmc"
    backend_version = 1
    capabilities = BackendCapabilities(
        metrics=frozenset(
            {
                USEFUL_WORK_FRACTION,
                TOTAL_USEFUL_WORK,
                "frac_execution",
                "frac_checkpointing",
                "frac_recovering",
            }
        ),
        deterministic=True,
        exact=True,
        max_nodes=None,
        description=(
            "exact steady state of the exponential checkpoint chain "
            "(executing/checkpointing/recovering) via the SAN state-space "
            "generator; no timeouts, correlated failures or reboots"
        ),
    )

    def supports(
        self, params: ModelParameters, plan: EvaluationPlan
    ) -> Optional[str]:
        """The chain exists only where every sojourn is exponential
        and the state space stays three macro states."""
        if params.timeout is not None:
            return "timeout-abort rounds add non-exponential coordination states"
        if params.prob_correlated_failure > 0:
            return "correlated failure bursts need the full model's window states"
        if (
            params.generic_correlated_coefficient > 0
            and params.generic_correlated_mode != "uniform"
        ):
            return "modulated generic correlated failures add hidden phases"
        if params.recovery_distribution != "exponential":
            return (
                f"recovery distribution {params.recovery_distribution!r} "
                "is not exponential"
            )
        if params.recovery_failure_threshold is not None:
            return "reboot thresholds add a rebooting state to the chain"
        spec = non_flat_strategy(plan)
        if spec is not None:
            return (
                f"the exact chain models only the flat coordinated "
                f"checkpoint protocol; strategy {spec!r} needs a sampled "
                f"SAN backend (san-sim)"
            )
        return None

    def build_submodel(self, params: ModelParameters) -> SANModel:
        """The three-state exponential chain as a SAN.

        Public so the agreement tests can simulate the *same* chain
        they solve (the strongest form of cross-validation: identical
        structure, independent evaluation machinery).
        """
        interval_rate = 1.0 / params.checkpoint_interval
        overhead = blocking_checkpoint_overhead(params)
        done_rate = 1.0 / overhead
        failure_rate = (
            params.compute_failure_rate * params.generic_uniform_multiplier
        )
        repair_rate = 1.0 / params.mttr

        model = SANModel("ctmc_checkpoint_chain")
        executing = model.add_place(_EXECUTING, initial=1)
        checkpointing = model.add_place(_CHECKPOINTING)
        recovering = model.add_place(_RECOVERING)
        model.add_activity(
            _transition("trigger", interval_rate, executing, checkpointing)
        )
        model.add_activity(
            _transition("ckpt_done", done_rate, checkpointing, executing)
        )
        model.add_activity(
            _transition("fail_exec", failure_rate, executing, recovering)
        )
        model.add_activity(
            _transition("fail_ckpt", failure_rate, checkpointing, recovering)
        )
        model.add_activity(
            _transition("repair", repair_rate, recovering, executing)
        )
        return model

    @observed
    def evaluate(
        self, params: ModelParameters, plan: EvaluationPlan
    ) -> EvaluationResult:
        """Solve the chain exactly.

        State probabilities are exact. The useful-work fraction
        subtracts the expected rollback loss to first order: a failure
        while executing discards on average half an interval of work,
        a failure while checkpointing discards a whole interval (the
        dump in progress has not committed), so

            ``UWF = P_exec - lambda * (P_exec * tau/2 + P_ckpt * tau)``

        clipped at zero. The correction is second-order small whenever
        the chain is a faithful abstraction (failures rare within one
        interval), which is exactly where this backend is useful.
        """
        self.check(params, plan)
        space = StateSpaceGenerator(self.build_submodel(params)).generate()
        solution = space.steady_state()
        p_exec = solution.probability_of(lambda m: m[_EXECUTING] == 1)
        p_ckpt = solution.probability_of(lambda m: m[_CHECKPOINTING] == 1)
        p_recover = solution.probability_of(lambda m: m[_RECOVERING] == 1)

        failure_rate = (
            params.compute_failure_rate * params.generic_uniform_multiplier
        )
        tau = params.checkpoint_interval
        rollback_loss = failure_rate * (p_exec * tau / 2.0 + p_ckpt * tau)
        uwf = max(0.0, p_exec - rollback_loss)

        metrics = {
            USEFUL_WORK_FRACTION: MetricValue(mean=uwf),
            TOTAL_USEFUL_WORK: MetricValue(mean=uwf * params.n_processors),
            "frac_execution": MetricValue(mean=p_exec),
            "frac_checkpointing": MetricValue(mean=p_ckpt),
            "frac_recovering": MetricValue(mean=p_recover),
        }
        details = {
            "states": float(space.size),
            "failure_rate": failure_rate,
            "blocking_overhead": blocking_checkpoint_overhead(params),
            "rollback_loss": rollback_loss,
        }
        return self.result(metrics=metrics, details=details)
