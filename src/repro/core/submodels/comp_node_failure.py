"""The ``comp_node_failure`` submodel.

Compute-node failures strike in any operational state (executing,
quiescing or dumping — failures *during recovery* are the
``comp_node_recovery`` submodel's job). The system-wide rate is
``n_nodes / MTTF``, multiplied by ``1 + r`` while a correlated-failure
window is open; the activity re-samples (memorylessly) whenever a
window opens or closes.

A failure rolls the application back to the last recoverable
checkpoint (losing the work accrued past it), aborts any checkpoint in
progress (the master fails back to its initial state — Section 3.4),
and, with probability ``p_e``, opens an error-propagation
correlated-failure window.
"""

from __future__ import annotations

from ...san import Case, InputGate, OutputGate, SANModel, TimedActivity
from ..ledger import WorkLedger
from ..parameters import ModelParameters
from . import names
from .common import (
    compute_nodes_up,
    modulated_failure_exponential,
    roll_back_computation,
)

__all__ = ["build_comp_node_failure"]


def build_comp_node_failure(
    model: SANModel, params: ModelParameters, ledger: WorkLedger
) -> None:
    """Add the compute-node failure activity to ``model``."""
    model.add_place(names.PROP_WINDOW)
    model.add_place(names.GEN_WINDOW)
    model.add_place(names.COMP_FAILED)

    def on_failure(state) -> None:
        roll_back_computation(state, ledger, cause="compute")

    def open_window(state) -> None:
        state.place(names.PROP_WINDOW).set(1)

    p_e = params.prob_correlated_failure
    model.add_activity(
        TimedActivity(
            "comp_failure",
            modulated_failure_exponential(params, params.compute_failure_rate),
            input_gates=[
                InputGate(
                    "compute_up",
                    predicate=compute_nodes_up,
                    function=on_failure,
                    reads=[names.EXECUTION, names.QUIESCING, names.DUMPING],
                )
            ],
            cases=[
                Case(output_gates=[OutputGate("open_prop_window", open_window)]),
                Case(),
            ],
            case_probabilities=[p_e, 1.0 - p_e],
            resample_on=[names.PROP_WINDOW, names.GEN_WINDOW],
        ),
        submodel="comp_node_failure",
    )
