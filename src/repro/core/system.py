"""Composition of the full checkpoint system model (paper Figure 1).

:func:`build_system` assembles the twelve submodels of Table 1 into
one :class:`~repro.san.SANModel` sharing state by place name, paired
with the :class:`~repro.core.ledger.WorkLedger` that carries the
continuous useful-work bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..san import SANModel
from .ledger import WorkLedger
from .parameters import ModelParameters
from .submodels import (
    app_cycle_group,
    build_app_workload,
    build_comp_node_failure,
    build_comp_node_recovery,
    build_compute_nodes,
    build_coordination,
    build_correlated_failures,
    build_io_node_failure,
    build_io_nodes,
    build_master,
    build_system_reboot,
)

__all__ = ["CheckpointSystem", "build_system"]


@dataclass
class CheckpointSystem:
    """A composed model instance: the SAN, its work ledger, and the
    parameters it was built from."""

    model: SANModel
    ledger: WorkLedger
    params: ModelParameters

    def lint(self) -> List[str]:
        """Structural warnings from model validation."""
        return self.model.validate()


def build_system(params: ModelParameters) -> CheckpointSystem:
    """Build the complete coordinated-checkpointing system model.

    The submodels are added in the paper's module order: computing &
    checkpointing, failure & recovery, correlated failure. (Useful
    work is a set of reward variables, attached at simulation time —
    see :mod:`repro.core.simulation`.)
    """
    ledger = WorkLedger()
    model = SANModel("coordinated_checkpointing")

    # Computing & checkpointing module.
    build_master(model, params, ledger)
    build_compute_nodes(model, params, ledger)
    build_coordination(model, params, ledger)
    build_app_workload(model, params, ledger)
    build_io_nodes(model, params, ledger)

    # Failure & recovery module.
    build_comp_node_failure(model, params, ledger)
    build_comp_node_recovery(model, params, ledger)
    build_io_node_failure(model, params, ledger)
    build_system_reboot(model, params, ledger)

    # Correlated failure module.
    build_correlated_failures(model, params, ledger)

    # The application cycle's replay declaration (kernel work only: it
    # changes no trajectory).
    model.replay_group = app_cycle_group(model)

    model.validate()
    return CheckpointSystem(model=model, ledger=ledger, params=params)
