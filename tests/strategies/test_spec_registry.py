"""Tests for the strategy spec grammar and the registry.

The contract under test: spec strings parse deterministically or fail
loudly with :class:`StrategySpecError`; canonicalisation is a
projection (idempotent, sorted, value-normalised) so two spellings of
one parameterisation always hash identically; the registry mirrors the
backend registry's behaviour for unknown ids, duplicate registration
and parameter validation.
"""

import pytest

from repro.strategies import (
    CheckpointStrategy,
    StrategyCapabilities,
    StrategyError,
    StrategySpecError,
    UnknownStrategyError,
    all_strategies,
    canonical_spec,
    format_spec,
    get_strategy,
    parse_spec,
    register,
    resolve,
    unregister,
)


class TestParseSpec:
    def test_bare_name(self):
        assert parse_spec("flat") == ("flat", {})

    def test_name_with_parameters(self):
        name, params = parse_spec(
            "incremental:compression_ratio=0.5,full_checkpoint_period=4"
        )
        assert name == "incremental"
        assert params == {
            "compression_ratio": 0.5,
            "full_checkpoint_period": 4,
        }

    def test_integers_stay_integers(self):
        _, params = parse_spec("incremental:full_checkpoint_period=4")
        assert isinstance(params["full_checkpoint_period"], int)

    def test_scientific_notation(self):
        _, params = parse_spec("adaptive:failure_rate=1e-4")
        assert params["failure_rate"] == pytest.approx(1e-4)

    def test_whitespace_tolerated(self):
        name, params = parse_spec(" adaptive : failure_rate = 0.5 ")
        assert name == "adaptive"
        assert params == {"failure_rate": 0.5}

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            ":compression_ratio=1",
            "incremental:",
            "incremental:compression_ratio",
            "incremental:=1",
            "incremental:compression_ratio=",
            "incremental:compression_ratio=abc",
            "incremental:compression_ratio=nan",
            "incremental:compression_ratio=inf",
            "incremental:compression_ratio=1,compression_ratio=2",
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(StrategySpecError):
            parse_spec(bad)

    def test_non_string_rejected(self):
        with pytest.raises(StrategySpecError):
            parse_spec(None)

    def test_errors_are_value_errors(self):
        # Plan validation and the CLI treat a bad strategy like any
        # other bad plan field; that only works if the whole hierarchy
        # is a ValueError.
        with pytest.raises(ValueError):
            parse_spec("incremental:oops")


class TestFormatSpec:
    def test_no_parameters_is_bare_name(self):
        assert format_spec("flat", {}) == "flat"

    def test_parameters_sorted_by_name(self):
        spec = format_spec(
            "incremental",
            {"full_checkpoint_period": 4, "compression_ratio": 0.5},
        )
        assert spec == (
            "incremental:compression_ratio=0.5,full_checkpoint_period=4"
        )

    def test_round_trips_through_parse(self):
        params = {"a": 0.1, "b": 3, "c": 1e-7}
        name, parsed = parse_spec(format_spec("x", params))
        assert name == "x"
        assert parsed == params


class TestCanonicalSpec:
    def test_is_a_projection(self):
        spec = "incremental:full_checkpoint_period=4,compression_ratio=.5"
        once = canonical_spec(spec)
        assert canonical_spec(once) == once

    def test_fills_in_defaults(self):
        # The canonical form names *every* parameter, so two specs
        # that rely on different defaults can never collide.
        assert canonical_spec("incremental") == (
            "incremental:compression_ratio=0.5,full_checkpoint_period=4"
        )

    def test_equivalent_spellings_collapse(self):
        a = canonical_spec("incremental:compression_ratio=0.50")
        b = canonical_spec("incremental:compression_ratio=.5")
        assert a == b

    def test_flat_stays_bare(self):
        assert canonical_spec("flat") == "flat"

    def test_adaptive_omits_unset_failure_rate(self):
        # An unset (observed) rate and an explicit rate are different
        # parameterisations and must spell differently.
        assert "failure_rate" not in canonical_spec("adaptive")
        assert "failure_rate" in canonical_spec("adaptive:failure_rate=1e-4")


class TestRegistry:
    def test_all_strategies_sorted_defaults(self):
        instances = all_strategies()
        assert [s.id for s in instances] == ["adaptive", "flat", "incremental"]

    def test_unknown_strategy_error_names_known_ids(self):
        with pytest.raises(UnknownStrategyError) as excinfo:
            get_strategy("nope")
        message = str(excinfo.value)
        assert "nope" in message
        assert "adaptive, flat, incremental" in message

    def test_unknown_strategy_error_is_value_and_key_error(self):
        # ValueError for plan validation / CLI mapping, KeyError for
        # registry-shaped callers — and str() must stay the clean
        # message, not KeyError's quoted repr.
        assert issubclass(UnknownStrategyError, ValueError)
        assert issubclass(UnknownStrategyError, KeyError)
        assert issubclass(UnknownStrategyError, StrategyError)
        err = UnknownStrategyError("unknown strategy 'x'")
        assert str(err) == "unknown strategy 'x'"

    def test_unaccepted_parameter_names_accepted_set(self):
        with pytest.raises(StrategySpecError) as excinfo:
            get_strategy("flat", compression_ratio=0.5)
        message = str(excinfo.value)
        assert "compression_ratio" in message
        assert "(none)" in message

    def test_unaccepted_parameter_on_parameterised_strategy(self):
        with pytest.raises(StrategySpecError) as excinfo:
            get_strategy("incremental", ratio=0.5)
        assert "compression_ratio, full_checkpoint_period" in str(
            excinfo.value
        )

    def test_duplicate_registration_rejected(self):
        class Dupe(CheckpointStrategy):
            id = "flat"

        with pytest.raises(ValueError, match="already registered"):
            register(Dupe)

    def test_register_requires_id(self):
        class Anonymous(CheckpointStrategy):
            pass

        with pytest.raises(ValueError, match="no id"):
            register(Anonymous)

    def test_register_unregister_round_trip(self):
        class Toy(CheckpointStrategy):
            id = "toy-strategy"
            capabilities = StrategyCapabilities(
                description="test-only", parameters=()
            )

            def params_dict(self):
                return {}

            def configure(self, params):
                return params

        try:
            register(Toy)
            assert "toy-strategy" in [s.id for s in all_strategies()]
            assert isinstance(resolve("toy-strategy"), Toy)
        finally:
            unregister("toy-strategy")
        assert "toy-strategy" not in [s.id for s in all_strategies()]
        with pytest.raises(UnknownStrategyError):
            get_strategy("toy-strategy")

    def test_repr_shows_canonical_spec(self):
        strategy = resolve("incremental:compression_ratio=0.25")
        assert "compression_ratio=0.25" in repr(strategy)
