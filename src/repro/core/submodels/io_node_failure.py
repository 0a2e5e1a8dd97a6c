"""The ``io_node_failure`` and ``io_node_recovery`` submodels.

When any I/O node fails, all I/O nodes must be restarted (in the BSP
model the application needs every I/O node's operation to complete —
Section 3.4). The consequences depend on what the I/O nodes were
doing:

* **writing a checkpoint** (or holding one buffered): the checkpoint
  is aborted; the previous durable checkpoint stays valid; the compute
  nodes are *not* affected;
* **writing application data**: the application's results are lost and
  the whole computation rolls back to the last checkpoint;
* **during recovery stage 2**: the buffered copy the compute nodes
  were reading is gone; recovery restarts (and, having lost the
  buffer, goes through stage 1 again);
* in every case the I/O nodes' memory is lost, so buffered
  checkpoints are invalidated, and the I/O nodes restart (MTTR 1 min).
"""

from __future__ import annotations

from ...san import Arc, Case, Exponential, InputGate, OutputGate, SANModel, TimedActivity
from ..ledger import WorkLedger
from ..parameters import ModelParameters
from . import names
from .common import (
    compute_nodes_up,
    modulated_failure_exponential,
    register_recovery_setback,
    roll_back_computation,
)

__all__ = ["build_io_node_failure"]


def build_io_node_failure(
    model: SANModel, params: ModelParameters, ledger: WorkLedger
) -> None:
    """Add the I/O-node failure and restart activities to ``model``."""
    io_idle = model.add_place(names.IO_IDLE, initial=1)
    io_restarting = model.add_place(names.IO_RESTARTING)

    def io_operational(state) -> bool:
        return (
            state.tokens(names.IO_RESTARTING) == 0
            and state.tokens(names.REBOOTING) == 0
        )

    def on_io_failure(state) -> None:
        ledger.io_failure()
        was_writing_app = state.tokens(names.IO_WRITING_APP) > 0
        # The I/O nodes' memory is lost with the restart: any buffered
        # (not yet durable) checkpoint is gone.
        ledger.invalidate_buffer()
        state.place(names.ENABLE_CHKPT).clear()
        state.place(names.IO_IDLE).clear()
        state.place(names.IO_WRITING_CKPT).clear()
        state.place(names.IO_WRITING_APP).clear()
        state.place(names.IO_RESTARTING).set(1)
        if was_writing_app and compute_nodes_up(state):
            # Application data lost mid-write: results are gone, the
            # computation rolls back to the last checkpoint.
            roll_back_computation(state, ledger, cause="app_data")
        if state.tokens(names.RECOVERING_S2):
            # The compute nodes were reading the (now lost) buffered
            # checkpoint: the recovery attempt failed.
            register_recovery_setback(state, params, ledger)

    def open_window(state) -> None:
        state.place(names.PROP_WINDOW).set(1)

    p_e = params.prob_correlated_failure
    model.add_activity(
        TimedActivity(
            "io_failure",
            modulated_failure_exponential(params, params.io_failure_rate),
            input_gates=[
                InputGate(
                    "io_up",
                    predicate=io_operational,
                    function=on_io_failure,
                    reads=[names.IO_RESTARTING, names.REBOOTING],
                )
            ],
            cases=[
                Case(output_gates=[OutputGate("open_prop_window_io", open_window)]),
                Case(),
            ],
            case_probabilities=[p_e, 1.0 - p_e],
            resample_on=[names.PROP_WINDOW, names.GEN_WINDOW],
        ),
        submodel="io_node_failure",
    )

    model.add_activity(
        TimedActivity(
            "io_restart",
            Exponential(1.0 / params.mttr_io),
            input_arcs=[Arc(io_restarting)],
            cases=[Case(output_arcs=[Arc(io_idle)])],
        ),
        submodel="io_node_recovery",
    )
