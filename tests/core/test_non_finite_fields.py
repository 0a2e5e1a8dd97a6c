"""NaN and infinities are rejected when a request object is built.

Every range check on a float field is written ``< 0`` or ``<= 0``,
which NaN passes (and ``inf`` passes most of). Unchecked, a NaN
checkpoint interval simulated to a negative useful-work fraction, a
NaN MTTF never finished, and a NaN wall-clock budget never tripped.
Each float field of the three request classes now names itself in a
``ValueError`` instead.
"""

import math
from dataclasses import fields

import pytest

from repro.backends import EvaluationPlan
from repro.core import ModelParameters, SimulationPlan

#: ``(class, field)`` for every field declared ``float`` or
#: ``Optional[float]``, so a float field added later is covered too.
FLOAT_FIELDS = [
    (cls, spec.name)
    for cls in (ModelParameters, SimulationPlan, EvaluationPlan)
    for spec in fields(cls)
    if spec.type in ("float", "Optional[float]")
]


def test_every_float_field_is_listed():
    assert len(FLOAT_FIELDS) == 21 + 3 + 1


@pytest.mark.parametrize(
    "cls, name", FLOAT_FIELDS,
    ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS],
)
def test_non_finite_value_names_the_field(cls, name):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            cls(**{name: bad})


def test_finite_values_still_build():
    assert ModelParameters(timeout=30.0, app_io_data_per_node=0.0)
    assert SimulationPlan(warmup=0.0, wall_clock_budget=1.0)
    assert EvaluationPlan(duration=3600.0)
