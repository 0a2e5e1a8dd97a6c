"""Tests for strict cache-key canonicalization (repro.backends.canonical).

The previous key scheme serialized requests with
``json.dumps(identity, sort_keys=True, default=str)``.  ``default=str``
silently stringifies anything json does not know — numpy scalars,
objects, whatever — which (a) collides distinct requests whose values
stringify alike and (b) misses equal requests whose values stringify
differently.  The canonical encoder rejects unknowns loudly and
normalizes numpy scalars, tuples, and signed zeros instead.
"""

import json
import math

import numpy as np
import pytest

from repro.backends import EvaluationPlan, get_backend
from repro.backends.cache import CACHE_KEY_VERSION, ResultCache
from repro.backends.canonical import canonical_json, canonicalize
from repro.core import HOUR, ModelParameters, SimulationPlan


def old_encoder(obj):
    """The collision-prone pre-fix serialization, kept verbatim so the
    regression test below fails against it."""
    return json.dumps(obj, sort_keys=True, default=str)


class TestCanonicalize:
    def test_passthrough_scalars(self):
        assert canonicalize(None) is None
        assert canonicalize(True) is True
        assert canonicalize(7) == 7
        assert canonicalize("x") == "x"
        assert canonicalize(1.5) == 1.5

    def test_tuple_and_list_agree(self):
        assert canonical_json((1, 2, 3)) == canonical_json([1, 2, 3])
        assert canonical_json({"a": (1, 2)}) == canonical_json({"a": [1, 2]})

    def test_mapping_keys_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_rejects_nan_and_infinities(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                canonicalize({"plan": {"x": bad}})

    def test_nan_error_names_location(self):
        with pytest.raises(ValueError, match=r"\$\.plan\.x"):
            canonicalize({"plan": {"x": math.nan}})
        with pytest.raises(ValueError, match=r"\$\.a\[1\]\.b"):
            canonicalize({"a": [1, {"b": math.nan}]})

    def test_numpy_scalars_normalize(self):
        assert canonicalize(np.int64(7)) == 7
        assert type(canonicalize(np.int64(7))) is int
        assert canonicalize(np.float64(0.25)) == 0.25
        assert type(canonicalize(np.float64(0.25))) is float
        assert canonicalize(np.bool_(True)) is True
        assert canonical_json({"n": np.int64(7)}) == canonical_json({"n": 7})

    def test_numpy_nan_rejected(self):
        with pytest.raises(ValueError):
            canonicalize(np.float64("nan"))

    def test_negative_zero_normalizes(self):
        assert canonical_json(-0.0) == canonical_json(0.0)

    def test_non_string_mapping_keys_rejected(self):
        with pytest.raises(TypeError):
            canonicalize({1: "a"})

    def test_unknown_types_rejected(self):
        class Opaque:
            pass

        with pytest.raises(TypeError, match="Opaque"):
            canonicalize({"x": Opaque()})

    def test_bytes_rejected_not_iterated(self):
        with pytest.raises(TypeError):
            canonicalize(b"abc")


class TestCollisionRegression:
    """These inputs break the old ``default=str`` encoder but not the
    canonical one.  If someone reverts to the old scheme, this fails."""

    def test_numpy_int_vs_string_collision(self):
        # Old scheme: np.int64(7) -> "7" == the string "7" (collision).
        a = {"seed": np.int64(7)}
        b = {"seed": "7"}
        assert old_encoder(a) == old_encoder(b)  # documents the bug
        assert canonical_json(a) != canonical_json(b)

    def test_numpy_int_vs_python_int_miss(self):
        # Old scheme: np.int64(7) -> "7" != 7 (spurious miss for an
        # identical request).
        a = {"seed": np.int64(7)}
        b = {"seed": 7}
        assert old_encoder(a) != old_encoder(b)  # documents the bug
        assert canonical_json(a) == canonical_json(b)

    def test_nan_no_longer_silently_accepted(self):
        # Old scheme emitted non-standard NaN literals; the canonical
        # encoder refuses outright.
        bad = {"x": math.nan}
        assert "NaN" in old_encoder(bad)  # documents the bug
        with pytest.raises(ValueError):
            canonical_json(bad)


class TestCacheKeyVersioning:
    def test_key_differs_from_v1_scheme(self, tmp_path):
        """Entries written under the old key scheme are never looked
        up again: the v2 identity hashes differently."""
        import hashlib

        from repro.backends.base import plan_key_dict
        from repro.backends.cache import SCHEMA_VERSION

        backend = get_backend("analytical")
        params = ModelParameters()
        plan = EvaluationPlan(
            metrics=("useful_work_fraction",),
            simulation=SimulationPlan(
                warmup=2 * HOUR, observation=20 * HOUR, replications=1
            ),
        )
        cache = ResultCache(str(tmp_path))
        new_key = cache.key(backend, params, plan)

        # Reconstruct what the pre-fix scheme would have produced.
        v1_identity = {
            "schema": SCHEMA_VERSION,
            "backend": backend.id,
            "backend_version": backend.backend_version,
        }
        v1_identity.update(plan_key_dict(params, plan))
        v1_key = hashlib.blake2b(
            old_encoder(v1_identity).encode("utf-8"), digest_size=16
        ).hexdigest()
        assert new_key != v1_key

    def test_key_version_is_bumped(self):
        assert CACHE_KEY_VERSION >= 2

    def test_key_stable_across_calls(self, tmp_path):
        backend = get_backend("analytical")
        params = ModelParameters()
        plan = EvaluationPlan(metrics=("useful_work_fraction",))
        cache = ResultCache(str(tmp_path))
        assert cache.key(backend, params, plan) == cache.key(
            backend, params, plan
        )

    def test_wall_clock_budget_does_not_fork_the_key(self, tmp_path):
        """A budget decides whether a run finishes, never its value:
        a budgeted request shares the budget-less request's key, and
        budget-less identities are exactly the plan's fields plus the
        pinned ``batch_size``."""
        from dataclasses import asdict, replace

        from repro.backends.base import plan_key_dict

        backend = get_backend("analytical")
        params = ModelParameters()
        plan = EvaluationPlan(metrics=("useful_work_fraction",))
        budgeted = replace(
            plan, simulation=replace(plan.simulation, wall_clock_budget=600.0)
        )
        cache = ResultCache(str(tmp_path))
        assert cache.key(backend, params, budgeted) == cache.key(
            backend, params, plan
        )
        expected = asdict(plan)
        # The removed batched kernel's batch_size stays pinned as null,
        # and the former kernel and confidence fields at their values.
        expected["simulation"]["batch_size"] = None
        expected["simulation"]["kernel"] = "incremental"
        expected["simulation"]["confidence"] = 0.95
        assert plan_key_dict(params, plan)["plan"] == expected
        assert budgeted.simulation.wall_clock_budget == 600.0
