"""Experiment presets, the base configuration and the shared grids.

The figures themselves are declared in
:mod:`repro.experiments.figures`. Three presets trade accuracy for
time:

* ``quick`` — benchmark-suite scale (minutes for everything);
* ``standard`` — faithful shapes with tight-enough intervals;
* ``full`` — publication-scale runs.

The paper's simulations use a 1000-hour transient; this model reaches
steady state far faster (its slowest relaxation is the recovery/reboot
path, minutes to hours), so shorter transients with longer measured
windows give the same steady-state estimates at lower cost.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.parameters import HOUR, MINUTE, YEAR, CoordinationMode, ModelParameters
from ..core.simulation import SimulationPlan

__all__ = [
    "PRESETS",
    "plan_for",
    "PROCESSOR_GRID",
    "INTERVAL_GRID_MIN",
    "PROPAGATION_PROBABILITY_GRID",
    "PROPAGATION_FACTOR_GRID",
    "base_parameters",
]

#: The paper's processor-count grid (Figures 4a–4f, 6, 8).
PROCESSOR_GRID: Tuple[int, ...] = (8192, 16384, 32768, 65536, 131072, 262144)

#: The paper's checkpoint-interval grid in minutes (Figures 4b/4d/4f).
INTERVAL_GRID_MIN: Tuple[int, ...] = (15, 30, 60, 120, 240)

#: Figure 7's grids: the probability p_e that a failure propagates,
#: and the factor r by which the failure rate rises while it does.
PROPAGATION_PROBABILITY_GRID: Tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.20)
PROPAGATION_FACTOR_GRID: Tuple[int, ...] = (400, 800, 1600)

PRESETS: Dict[str, SimulationPlan] = {
    "quick": SimulationPlan(warmup=20 * HOUR, observation=150 * HOUR, replications=2),
    "standard": SimulationPlan(
        warmup=100 * HOUR, observation=1000 * HOUR, replications=3
    ),
    "full": SimulationPlan(warmup=200 * HOUR, observation=3000 * HOUR, replications=5),
}


def plan_for(preset: str) -> SimulationPlan:
    """The :class:`SimulationPlan` of a named preset."""
    try:
        return PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
        ) from None


def base_parameters() -> ModelParameters:
    """The paper's base-model configuration (Section 7.1)."""
    return ModelParameters(
        n_processors=65536,
        processors_per_node=8,
        checkpoint_interval=30 * MINUTE,
        mttf_node=1 * YEAR,
        mttr=10 * MINUTE,
        mttq=10.0,
        coordination_mode=CoordinationMode.FIXED,
        timeout=None,
    )
