"""Backend vetoes for non-flat checkpointing strategies.

The exact and closed-form backends (ctmc, analytical) and the
message-level cluster replay model only the paper's flat protocol;
a plan carrying any other strategy must be *declined with a reason*
through ``supports`` (so differential sweeps report a skip instead of
comparing protocols that differ by construction) and *refused loudly*
through ``evaluate``. The sampled SAN backends run every strategy.
"""

import pytest

from repro.backends import (
    EvaluationPlan,
    UnsupportedParametersError,
    get_backend,
    non_flat_strategy,
)
from repro.core import HOUR, ModelParameters, SimulationPlan

PARAMS = ModelParameters(n_processors=1024, processors_per_node=8)
ZOO_PLAN = EvaluationPlan(
    simulation=SimulationPlan(
        warmup=1 * HOUR,
        observation=20 * HOUR,
        replications=2,
        strategy="incremental:compression_ratio=0.5",
    )
)
FLAT_PLAN = EvaluationPlan(
    simulation=SimulationPlan(
        warmup=1 * HOUR, observation=20 * HOUR, replications=2
    )
)

FLAT_ONLY = ("ctmc", "analytical", "cluster")
SAMPLED = ("san-sim", "san-sim-full")


class TestNonFlatStrategyHelper:
    def test_flat_plan_yields_none(self):
        assert non_flat_strategy(FLAT_PLAN) is None

    def test_non_flat_plan_yields_canonical_spec(self):
        spec = non_flat_strategy(ZOO_PLAN)
        assert spec is not None
        assert spec.startswith("incremental:")


class TestFlatOnlyBackendsVeto:
    @pytest.mark.parametrize("backend_id", FLAT_ONLY)
    def test_supports_returns_a_reason(self, backend_id):
        reason = get_backend(backend_id).supports(PARAMS, ZOO_PLAN)
        assert reason is not None
        assert "flat" in reason
        assert "incremental" in reason

    @pytest.mark.parametrize("backend_id", FLAT_ONLY)
    def test_supports_accepts_the_flat_plan(self, backend_id):
        assert get_backend(backend_id).supports(PARAMS, FLAT_PLAN) is None

    @pytest.mark.parametrize("backend_id", FLAT_ONLY)
    def test_evaluate_raises_unsupported(self, backend_id):
        with pytest.raises(UnsupportedParametersError, match="flat"):
            get_backend(backend_id).evaluate(PARAMS, ZOO_PLAN)


class TestSampledBackendsAccept:
    @pytest.mark.parametrize("backend_id", SAMPLED)
    def test_supports_every_strategy(self, backend_id):
        assert get_backend(backend_id).supports(PARAMS, ZOO_PLAN) is None

    def test_san_sim_evaluates_the_variant(self):
        result = get_backend("san-sim").evaluate(PARAMS, ZOO_PLAN)
        assert 0.0 < result.metric("useful_work_fraction").mean < 1.0
