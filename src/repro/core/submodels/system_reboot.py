"""The ``system_reboot`` submodel.

When the number of unsuccessful recoveries exceeds the configured
threshold, the whole system — compute nodes and I/O nodes — reboots
(1 hour). When the reboot completes the I/O nodes are ready for
execution, but the compute nodes still need to read the last durable
checkpoint and recover, so the reboot feeds the ``comp_failed`` state
rather than ``execution`` (paper Figure 1: "reboot completes" points
to ``io_nodes`` and ``comp_node_failure``).
"""

from __future__ import annotations

from ...san import Arc, Case, Deterministic, OutputGate, SANModel, TimedActivity
from ..ledger import WorkLedger
from ..parameters import ModelParameters
from . import names

__all__ = ["build_system_reboot"]


def build_system_reboot(
    model: SANModel, params: ModelParameters, ledger: WorkLedger
) -> None:
    """Add the reboot activity to ``model``."""
    rebooting = model.add_place(names.REBOOTING)

    def reboot_done(state) -> None:
        state.place(names.IO_IDLE).set(1)
        # Compute nodes must read the checkpoint and recover; the I/O
        # nodes' memory is empty, so recovery goes through stage 1.
        state.place(names.COMP_FAILED).set(1)

    model.add_activity(
        TimedActivity(
            "reboot_complete",
            Deterministic(params.system_reboot_time),
            input_arcs=[Arc(rebooting)],
            cases=[Case(output_gates=[OutputGate("reboot_done", reboot_done)])],
        ),
        submodel="system_reboot",
    )
