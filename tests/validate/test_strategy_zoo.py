"""Differential + metamorphic coverage of the checkpointing-strategy
zoo.

The obligations under test: every variant AGREEs with flat at its
documented reduction point (bit-identically for incremental, within
the modeling band for adaptive); participant labels with an
``@strategy`` suffix resolve, filter, and perturb correctly; and the
``strategy.*`` mutation channel has teeth — a perturbed compression
ratio must surface as a DISAGREE against the honest flat reference.
"""

import pytest

from repro.backends import USEFUL_WORK_FRACTION, EvaluationPlan
from repro.core.parameters import HOUR, MINUTE, ModelParameters
from repro.core.simulation import SimulationPlan
from repro.validate.differential import (
    DifferentialCase,
    _perturb_strategy_spec,
    _split_perturbation,
    default_cases,
    filter_cases_by_backends,
    run_case,
    split_backend_label,
)
from repro.validate.metamorphic import (
    check_adaptive_reduction,
    check_compression_monotonicity,
    check_incremental_reduction,
)
from repro.validate.stats import AGREE, DISAGREE, TolerancePolicy

REDUCTION = "incremental:compression_ratio=1,full_checkpoint_period=1"


def zoo_case(backends, *, abs_tolerance=1e-12, replications=4):
    """A fast incremental-reduction case (seconds, not minutes)."""
    return DifferentialCase(
        name="zoo-tiny",
        description="fast strategy-zoo test case",
        parameters=ModelParameters(
            n_processors=2048,
            processors_per_node=8,
            checkpoint_interval=15 * MINUTE,
        ),
        backends=tuple(backends),
        plan=EvaluationPlan(
            metrics=(USEFUL_WORK_FRACTION,),
            simulation=SimulationPlan(
                warmup=1 * HOUR,
                observation=40 * HOUR,
                replications=replications,
            ),
        ),
        policy=TolerancePolicy(
            alpha=0.01, rel_tolerance=0.0, abs_tolerance=abs_tolerance
        ),
    )


class TestLabels:
    def test_plain_label_is_flat(self):
        assert split_backend_label("san-sim") == ("san-sim", None)

    def test_suffixed_label_carries_spec(self):
        assert split_backend_label(f"san-sim@{REDUCTION}") == (
            "san-sim",
            REDUCTION,
        )

    def test_spec_colon_survives_the_split(self):
        backend, spec = split_backend_label("ctmc@adaptive:failure_rate=1e-4")
        assert backend == "ctmc"
        assert spec == "adaptive:failure_rate=1e-4"


class TestFilterCasesByBackends:
    def test_strategy_suffixed_participants_count_under_base_id(self):
        cases = filter_cases_by_backends(
            [zoo_case(("san-sim", f"san-sim@{REDUCTION}", "ctmc"))],
            ["san-sim"],
        )
        assert len(cases) == 1
        assert cases[0].backends == ("san-sim", f"san-sim@{REDUCTION}")

    def test_cases_below_two_participants_dropped(self):
        cases = filter_cases_by_backends(
            [zoo_case(("san-sim", "ctmc"))], ["ctmc"]
        )
        assert cases == []

    def test_unknown_backend_id_is_loud(self):
        with pytest.raises(ValueError, match="unknown backend"):
            filter_cases_by_backends([zoo_case(("san-sim", "ctmc"))], ["nope"])

    def test_default_zoo_cases_survive_a_san_sim_filter(self):
        filtered = filter_cases_by_backends(default_cases(), ["san-sim"])
        assert {case.name for case in filtered} == {
            "incremental-vs-flat",
            "adaptive-vs-flat",
        }


class TestDefaultCases:
    def test_zoo_cases_registered(self):
        names = {case.name for case in default_cases()}
        assert {"incremental-vs-flat", "adaptive-vs-flat"} <= names

    def test_incremental_case_pins_bit_identity(self):
        case = {c.name: c for c in default_cases()}["incremental-vs-flat"]
        assert case.policy.abs_tolerance == 1e-12
        assert any("@incremental:" in label for label in case.backends)

    def test_adaptive_case_freezes_the_rate(self):
        case = {c.name: c for c in default_cases()}["adaptive-vs-flat"]
        label = next(l for l in case.backends if "@adaptive:" in l)
        _, spec = split_backend_label(label)
        assert "failure_rate=" in spec


class TestRunCaseWithStrategies:
    def test_incremental_reduction_agrees_bit_identically(self):
        result = run_case(
            zoo_case(("san-sim", f"san-sim@{REDUCTION}")), seed=0
        )
        assert result.verdict == AGREE, [str(p) for p in result.pairs]
        (pair,) = result.pairs
        assert pair.summary_a.mean == pair.summary_b.mean

    def test_strategy_perturbation_disagrees(self):
        # The mutation smoke's contract in miniature: perturbing the
        # sampled variant's spec parameters must break bit-identity.
        case = zoo_case(
            ("san-sim", f"san-sim@{REDUCTION}"), replications=6
        ).scaled(1.5)
        result = run_case(
            case,
            seed=0,
            perturb={
                "strategy.compression_ratio": 0.6,
                "strategy.full_checkpoint_period": 4,
            },
        )
        assert result.verdict == DISAGREE
        assert result.perturbed == (f"san-sim@{REDUCTION}",)

    def test_flat_participants_ignore_strategy_perturbations(self):
        result = run_case(
            zoo_case(("san-sim", "san-sim-full")),
            seed=0,
            perturb={"strategy.compression_ratio": 0.5},
        )
        # No participant carries the parameter: nothing is perturbed
        # and the kernel-equivalence bit-identity still holds.
        assert result.perturbed == ()
        assert result.verdict == AGREE

    def test_unknown_strategy_parameter_is_loud(self):
        with pytest.raises(ValueError, match="strategy.entropy"):
            run_case(
                zoo_case(("san-sim", f"san-sim@{REDUCTION}")),
                seed=0,
                perturb={"strategy.entropy": 2.0},
            )

    def test_exact_backend_skips_non_flat_participant(self):
        result = run_case(
            zoo_case(
                ("san-sim", f"san-sim@{REDUCTION}", f"ctmc@{REDUCTION}"),
            ),
            seed=0,
        )
        assert f"ctmc@{REDUCTION}" in result.skipped
        assert "flat" in result.skipped[f"ctmc@{REDUCTION}"]
        assert result.verdict == AGREE


class TestPerturbationPlumbing:
    def test_split_separates_model_and_strategy_keys(self):
        params, strategy = _split_perturbation(
            {"mttf_node": 0.5, "strategy.compression_ratio": 0.6}
        )
        assert params == {"mttf_node": 0.5}
        assert strategy == {"compression_ratio": 0.6}

    def test_perturb_preserves_integer_types(self):
        spec = _perturb_strategy_spec(
            "incremental:compression_ratio=0.5,full_checkpoint_period=2",
            {"full_checkpoint_period": 3},
        )
        # 2 * 3 stays the integer 6, not 6.0 — spec grammar round-trip.
        assert "full_checkpoint_period=6" in spec
        assert "full_checkpoint_period=6.0" not in spec

    def test_perturb_leaves_foreign_parameters_alone(self):
        spec = "adaptive:failure_rate=0.001"
        assert (
            _perturb_strategy_spec(spec, {"compression_ratio": 0.5}) == spec
        )


class TestMetamorphicZooChecks:
    def test_incremental_reduction_check(self):
        check = check_incremental_reduction(seed=0)
        assert check.passed, check.detail

    def test_incremental_reduction_other_seed(self):
        check = check_incremental_reduction(seed=5)
        assert check.passed, check.detail

    def test_adaptive_reduction_check(self):
        check = check_adaptive_reduction(seed=0)
        assert check.passed, check.detail

    def test_adaptive_reduction_other_interval(self):
        check = check_adaptive_reduction(seed=2, target_interval=900.0)
        assert check.passed, check.detail

    def test_compression_monotonicity_check(self):
        check = check_compression_monotonicity()
        assert check.passed, check.detail

    def test_adaptive_check_has_teeth(self):
        # An interval the clamp bends away from the target must fail
        # the closeness predicate — the detector can fire.
        check = check_adaptive_reduction(seed=0, target_interval=10.0)
        assert not check.passed
