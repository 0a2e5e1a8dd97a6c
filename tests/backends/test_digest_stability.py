"""Cache keys stay byte-identical across versions of the code.

A result cache, a queue's ``results/`` store and a backend fault plan
all file work under the digest of its request. A change to how that
digest is computed must not change a single key, or every stored
result silently becomes a miss. Two guards:

* **golden digests** of fixed requests, recorded before the digest
  recipe was made cheap (``asdict``, a path-tracking
  ``canonicalize``, ``json.dumps``);
* a **property**: over generated parameters and plans, including
  numpy seeds and ``-0.0`` fields, :func:`request_digest` and
  :func:`evaluation_key` equal that earlier recipe, kept verbatim
  below.

The property test skips when hypothesis is not installed; the golden
digests always run.
"""

import hashlib
import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import asdict, replace

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - exercised only without hypothesis
    st = None

from repro.backends import (
    EvaluationPlan,
    TOTAL_USEFUL_WORK,
    USEFUL_WORK_FRACTION,
    backend_ids,
    get_backend,
)
from repro.backends.base import SCHEMA_VERSION, plan_key_dict
from repro.backends.cache import CACHE_KEY_VERSION, request_digest
from repro.core import CoordinationMode, ModelParameters, SimulationPlan
from repro.experiments.config import plan_for
from repro.experiments.faultinject import evaluation_key
from repro.experiments.figures import FIGURE_SPECS
from repro.experiments.runner import sweep_eval_plan

# ----------------------------------------------------------------------
# The earlier recipe, verbatim
# ----------------------------------------------------------------------


def old_canonicalize(obj, _path="$"):
    """``repro.backends.canonical.canonicalize`` before location
    formatting was deferred to the error path."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, np.generic):
        return old_canonicalize(obj.item(), _path)
    if isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(
                f"non-finite float {obj!r} at {_path} cannot be part of a "
                "cache identity; reject it before building the request"
            )
        return obj + 0.0 if obj == 0.0 else obj  # -0.0 -> 0.0
    if isinstance(obj, Mapping):
        normalized = {}
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(
                    f"mapping key {key!r} at {_path} is "
                    f"{type(key).__name__}, not str"
                )
            normalized[key] = old_canonicalize(obj[key], f"{_path}.{key}")
        return {key: normalized[key] for key in sorted(normalized)}
    if isinstance(obj, (list, tuple)):
        return [
            old_canonicalize(item, f"{_path}[{index}]")
            for index, item in enumerate(obj)
        ]
    if isinstance(obj, Sequence) and not isinstance(obj, (bytes, bytearray)):
        return [
            old_canonicalize(item, f"{_path}[{index}]")
            for index, item in enumerate(obj)
        ]
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__} at {_path}: cache "
        "identities accept only None/bool/int/finite float/str, "
        "mappings with str keys, and sequences thereof"
    )


def old_canonical_json(obj):
    return json.dumps(
        old_canonicalize(obj),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def old_plan_key_dict(params, plan):
    plan_dict = asdict(plan)
    if plan.simulation.wall_clock_budget is not None:
        plan_dict["simulation"]["wall_clock_budget"] = None
    # The recipe hashed the batched kernel's batch_size, null for every
    # plan a remaining kernel runs; asdict no longer emits it.
    plan_dict["simulation"]["batch_size"] = None
    return {"params": asdict(params), "plan": plan_dict}


def old_request_digest(backend, params, plan):
    identity = {
        "schema": SCHEMA_VERSION,
        "key_version": CACHE_KEY_VERSION,
        "backend": backend.id,
        "backend_version": backend.backend_version,
    }
    identity.update(old_plan_key_dict(params, plan))
    canonical = old_canonical_json(identity)
    return hashlib.blake2b(
        canonical.encode("utf-8"), digest_size=16
    ).hexdigest()


def old_evaluation_key(backend_id, params, plan):
    identity = {"backend": backend_id}
    identity.update(old_plan_key_dict(params, plan.with_seed(0)))
    return hashlib.blake2b(
        old_canonical_json(identity).encode("utf-8"), digest_size=16
    ).hexdigest()


# ----------------------------------------------------------------------
# Golden digests
# ----------------------------------------------------------------------

QUICK = plan_for("quick")
#: Quick fig4a, point 0 (8192 processors, 1/8-year MTTF), at seed 0:
#: the request ``run-figure fig4a --preset quick --seed 0`` files its
#: first point under.
FIG4A_PARAMS = FIGURE_SPECS["fig4a"].points()[0].params
FIG4A_PLAN = sweep_eval_plan(TOTAL_USEFUL_WORK, QUICK, 0)


def with_simulation(**changes):
    return replace(FIG4A_PLAN, simulation=replace(QUICK, **changes))


GOLDEN = [
    ("san-sim", FIG4A_PLAN, "4954dd9716c822166574f6b21f0af49d"),
    ("analytical", FIG4A_PLAN, "35f19b1d115143b4eae22bfc18f8dcaf"),
    # A budget never changes a value: the budget-less key.
    ("san-sim", with_simulation(wall_clock_budget=600.0),
     "4954dd9716c822166574f6b21f0af49d"),
    ("san-sim",
     with_simulation(
         strategy="incremental:compression_ratio=0.5,full_checkpoint_period=4"
     ),
     "cd7ea3036d31defce09b9006068cf5dd"),
    # The kernel is part of the key, and so is the backend that pins it.
    ("san-sim", with_simulation(kernel="full"),
     "41340560596e1c06dcd335b1d43a8b91"),
    ("san-sim-full", with_simulation(kernel="full"),
     "25bf69dd07811e839512b9629d384dae"),
    ("san-sim",
     EvaluationPlan(metrics=(TOTAL_USEFUL_WORK,), simulation=QUICK, seed=0),
     "81e206e7919661d1177d93f92b98fe01"),
]


@pytest.mark.parametrize(
    "backend_id, plan, digest", GOLDEN,
    ids=["san-sim", "analytical", "budget", "incremental", "kernel-full",
         "san-sim-full", "total-useful-work"],
)
def test_golden_request_digest(backend_id, plan, digest):
    assert request_digest(get_backend(backend_id), FIG4A_PARAMS, plan) == digest


def test_golden_evaluation_key():
    assert (
        evaluation_key("san-sim", FIG4A_PARAMS, FIG4A_PLAN)
        == "52813dd8e801dd859f4de0c1168df715"
    )


# ----------------------------------------------------------------------
# Property: the cheap recipe is the earlier recipe
# ----------------------------------------------------------------------

if st is not None:
    def _finite(min_value, max_value=1e12):
        """Finite floats in range, as Python floats, numpy floats or
        ints (an int is a valid value of a float field)."""
        floats = st.floats(min_value=min_value, max_value=max_value,
                           allow_nan=False, allow_infinity=False)
        return st.one_of(
            floats,
            floats.map(np.float64),
            st.integers(min_value=math.ceil(min_value),
                        max_value=int(max_value)),
        )

    positive = _finite(1e-6)
    #: ``-0.0`` passes a ``>= 0`` check and must key like ``0.0``.
    non_negative = st.one_of(st.just(-0.0), _finite(0.0))
    unit = st.one_of(st.just(-0.0), _finite(0.0, 1.0))

    PARAM_FIELDS = {
        "checkpoint_interval": positive,
        "mttf_node": positive,
        "mttr": positive,
        "mttr_io": positive,
        "mttq": positive,
        "coordination_mode": st.sampled_from(CoordinationMode.ALL),
        "coordination_over": st.sampled_from(("processors", "nodes")),
        "timeout": st.one_of(st.none(), positive),
        "broadcast_overhead": non_negative,
        "software_overhead": non_negative,
        "app_io_cycle_period": positive,
        "compute_fraction": unit,
        "prob_correlated_failure": unit,
        "frate_correlated_factor": non_negative,
        "correlated_failure_window": positive,
        "generic_correlated_coefficient": st.one_of(
            st.just(-0.0), _finite(0.0, 0.999)
        ),
        "generic_correlated_mode": st.sampled_from(("uniform", "modulated")),
        "system_reboot_time": positive,
        "recovery_failure_threshold": st.one_of(
            st.none(), st.integers(1, 10)
        ),
        "bandwidth_compute_to_io": positive,
        "bandwidth_io_to_fs": positive,
        "compute_nodes_per_io_node": st.integers(1, 1024),
        "checkpoint_size_per_node": positive,
        "app_io_data_per_node": non_negative,
        "background_checkpoint_write": st.booleans(),
        "recovery_distribution": st.sampled_from(
            ("exponential", "erlang2", "deterministic")
        ),
        "checkpoint_write_factor": positive,
        "recovery_read_factor": positive,
    }

    @st.composite
    def model_parameters(draw):
        overrides = draw(st.fixed_dictionaries(
            {}, optional=PARAM_FIELDS
        ))
        per_node = draw(st.sampled_from((1, 2, 8, 16)))
        nodes = draw(st.integers(1, 2**15))
        return ModelParameters(
            n_processors=per_node * nodes, processors_per_node=per_node,
            **overrides,
        )

    @st.composite
    def evaluation_plans(draw):
        simulation = SimulationPlan(
            warmup=draw(non_negative),
            observation=draw(positive),
            replications=draw(st.integers(1, 8)),
            confidence=draw(st.floats(0.01, 0.99)),
            wall_clock_budget=draw(st.one_of(st.none(), positive)),
            kernel=draw(st.sampled_from(("incremental", "full"))),
            strategy=draw(st.sampled_from((
                "flat",
                "incremental",
                "incremental:compression_ratio=0.5,full_checkpoint_period=4",
                "adaptive",
            ))),
        )
        seed = draw(st.integers(0, 2**63 - 1))
        return EvaluationPlan(
            metrics=tuple(draw(st.lists(
                st.sampled_from((USEFUL_WORK_FRACTION, TOTAL_USEFUL_WORK,
                                 "mean_coordination_time")),
                min_size=1, max_size=3,
            ))),
            simulation=simulation,
            seed=draw(st.sampled_from((seed, np.int64(seed)))),
            duration=draw(st.one_of(st.none(), positive)),
        )

    @given(
        backend_id=st.sampled_from(backend_ids()),
        params=model_parameters(),
        plan=evaluation_plans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_keys_equal_the_earlier_recipe(backend_id, params, plan):
        backend = get_backend(backend_id)
        assert plan_key_dict(params, plan) == old_plan_key_dict(params, plan)
        assert request_digest(backend, params, plan) == old_request_digest(
            backend, params, plan
        )
        assert evaluation_key(backend_id, params, plan) == old_evaluation_key(
            backend_id, params, plan
        )
else:  # pragma: no cover - exercised only without hypothesis
    @pytest.mark.skip(reason="hypothesis is not installed; property tests "
                             "are optional")
    def test_keys_equal_the_earlier_recipe():
        pass
