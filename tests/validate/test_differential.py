"""Tests for the differential-oracle driver."""

from dataclasses import replace

import pytest

from repro.backends import (
    USEFUL_WORK_FRACTION,
    EvaluationPlan,
    EvaluationResult,
    MetricValue,
    get_backend,
)
from repro.core.parameters import HOUR, ModelParameters
from repro.core.simulation import SimulationPlan
from repro.validate.differential import (
    DifferentialCase,
    apply_perturbation,
    default_cases,
    parse_perturbation,
    run_case,
    summarize_result,
)
from repro.validate.stats import (
    AGREE,
    DISAGREE,
    INCONCLUSIVE,
    TolerancePolicy,
)


def tiny_case(backends=("san-sim", "ctmc", "analytical"), **policy_kwargs):
    """A fast (≈0.2 s) case in the failure-dominated regime."""
    policy = TolerancePolicy(
        alpha=0.01, rel_tolerance=0.0, abs_tolerance=0.02, **policy_kwargs
    )
    return DifferentialCase(
        name="tiny",
        description="fast test case",
        parameters=ModelParameters(n_processors=4096, processors_per_node=8),
        backends=tuple(backends),
        plan=EvaluationPlan(
            metrics=(USEFUL_WORK_FRACTION,),
            simulation=SimulationPlan(
                warmup=1 * HOUR, observation=80 * HOUR, replications=6
            ),
        ),
        policy=policy,
    )


class TestSummarizeResult:
    def test_exact_backend_gives_exact_summary(self):
        backend = get_backend("ctmc")
        result = backend.evaluate(
            ModelParameters(n_processors=1024), EvaluationPlan()
        )
        summary = summarize_result(backend, result, USEFUL_WORK_FRACTION)
        assert summary.exact
        assert summary.standard_error == 0.0

    def test_closed_form_backend_gives_exact_summary(self):
        backend = get_backend("analytical")
        result = backend.evaluate(
            ModelParameters(n_processors=1024), EvaluationPlan()
        )
        assert summarize_result(backend, result, USEFUL_WORK_FRACTION).exact

    def test_missing_replication_count_is_unvalidated(self):
        backend = get_backend("san-sim")  # any sampled backend
        result = EvaluationResult(
            backend="san-sim",
            metrics={USEFUL_WORK_FRACTION: MetricValue(0.9, 0.0)},
        )
        summary = summarize_result(backend, result, USEFUL_WORK_FRACTION)
        assert summary.samples == 1
        assert not summary.validated

    def test_sampled_backend_carries_replications(self):
        backend = get_backend("san-sim")
        plan = EvaluationPlan(
            simulation=SimulationPlan(
                warmup=1 * HOUR, observation=40 * HOUR, replications=5
            )
        )
        result = backend.evaluate(ModelParameters(n_processors=1024), plan)
        summary = summarize_result(backend, result, USEFUL_WORK_FRACTION)
        assert summary.samples == 5
        assert summary.validated


class TestPerturbation:
    def test_parse(self):
        assert parse_perturbation("mttf_node=0.25") == {"mttf_node": 0.25}
        assert parse_perturbation("a=2, b=0.5") == {"a": 2.0, "b": 0.5}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_perturbation("mttf_node")

    def test_apply(self):
        params = ModelParameters(n_processors=1024)
        perturbed = apply_perturbation(params, {"mttf_node": 0.5})
        assert perturbed.mttf_node == pytest.approx(params.mttf_node * 0.5)
        assert perturbed.n_processors == params.n_processors

    def test_apply_preserves_int_fields(self):
        params = ModelParameters(n_processors=1024)
        perturbed = apply_perturbation(params, {"n_processors": 2.0})
        assert perturbed.n_processors == 2048
        assert isinstance(perturbed.n_processors, int)

    def test_unknown_field_is_loud(self):
        with pytest.raises(ValueError, match="unknown parameter field"):
            apply_perturbation(ModelParameters(), {"no_such_field": 2.0})

    def test_non_numeric_field_is_loud(self):
        with pytest.raises(ValueError, match="not numeric"):
            apply_perturbation(ModelParameters(), {"coordination_mode": 2.0})


class TestRunCase:
    def test_healthy_case_agrees(self):
        outcome = run_case(tiny_case(), seed=0)
        assert outcome.verdict == AGREE
        assert outcome.passed
        assert not outcome.skipped
        assert {p.comparison.verdict for p in outcome.pairs} == {AGREE}

    def test_perturbation_produces_disagreement(self):
        # The mutation smoke: exact oracles answer the reference
        # config, the simulator answers a 4x-worse-MTTF config.
        outcome = run_case(tiny_case(), seed=0, perturb={"mttf_node": 0.25})
        assert outcome.perturbed == ("san-sim",)
        assert outcome.verdict == DISAGREE
        assert not outcome.passed

    def test_unsupported_backend_is_skipped_with_reason(self):
        case = tiny_case(backends=("san-sim", "ctmc", "cluster"))
        # 4096 processors = 512 nodes is fine, but timeout-abort is
        # not implemented by the cluster simulator.
        case = DifferentialCase(
            name="skip",
            description="cluster must veto",
            parameters=ModelParameters(
                n_processors=4096, processors_per_node=8, timeout=60.0
            ),
            backends=("ctmc", "cluster"),
            plan=case.plan,
            policy=case.policy,
        )
        outcome = run_case(case, seed=0)
        assert "cluster" in outcome.skipped
        assert "timeout" in outcome.skipped["cluster"]

    def test_seed_determinism(self):
        first = run_case(tiny_case(), seed=5)
        second = run_case(tiny_case(), seed=5)
        assert first.summaries == second.summaries

    def test_inconclusive_when_all_pairs_unvalidated(self):
        # A case consisting only of one sampled backend with n=1
        # against an exact oracle can never certify.
        case = DifferentialCase(
            name="n1",
            description="single cluster trajectory",
            parameters=ModelParameters(
                n_processors=512, processors_per_node=8
            ),
            backends=("cluster", "ctmc"),
            plan=EvaluationPlan(
                metrics=(USEFUL_WORK_FRACTION,),
                simulation=SimulationPlan(
                    warmup=1 * HOUR, observation=40 * HOUR, replications=4
                ),
                duration=40 * HOUR,
            ),
            policy=TolerancePolicy(abs_tolerance=0.05),
        )
        outcome = run_case(case, seed=0)
        assert outcome.verdict == INCONCLUSIVE
        assert outcome.passed  # reported, but not a failure


class TestDefaultCases:
    def test_names_are_unique(self):
        names = [case.name for case in default_cases()]
        assert len(names) == len(set(names))

    def test_scaling_shrinks_effort(self):
        full = default_cases()[0]
        scaled = default_cases(0.5)[0]
        assert (
            scaled.plan.simulation.observation
            < full.plan.simulation.observation
        )
        assert (
            scaled.plan.simulation.replications
            <= full.plan.simulation.replications
        )

    def test_scaling_keeps_minimum_replications(self):
        tiny = default_cases(0.001)[0]
        assert tiny.plan.simulation.replications >= 4

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            default_cases(0)[0]

    def test_scaling_preserves_kernel(self):
        """Effort scaling must shrink the horizon, not silently change
        which kernel a case exercises."""
        case = default_cases()[0]
        on_full = replace(case, plan=replace(
            case.plan, simulation=replace(case.plan.simulation, kernel="full")
        ))
        assert on_full.scaled(0.25).plan.simulation.kernel == "full"
        cases = {c.name: c for c in default_cases(0.25)}
        for case in cases.values():
            full = {c.name: c for c in default_cases()}[case.name]
            assert (
                case.plan.simulation.kernel == full.plan.simulation.kernel
            ), case.name
