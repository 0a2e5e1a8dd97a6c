"""The twelve SAN submodels of the checkpoint system (paper Table 1).

Each module exposes a builder ``build_<name>(model, params, ledger)``
that adds its places and activities to a shared :class:`SANModel`;
:mod:`repro.core.system` composes them exactly as the paper's
Figure 1. The ``useful_work`` submodel contributes reward variables
rather than activities.
"""

from .app_cycle import app_cycle_group
from .app_workload import build_app_workload
from .compute_nodes import build_compute_nodes
from .coordination import build_coordination, coordination_distribution
from .comp_node_failure import build_comp_node_failure
from .comp_node_recovery import build_comp_node_recovery
from .correlated_failures import build_correlated_failures
from .io_node_failure import build_io_node_failure
from .io_nodes import build_io_nodes
from .master import build_master
from .system_reboot import build_system_reboot
from .useful_work import (
    BREAKDOWN_NAMES,
    USEFUL_WORK,
    breakdown_rewards,
    useful_work_reward,
)
from . import names

__all__ = [
    "app_cycle_group",
    "build_app_workload",
    "build_compute_nodes",
    "build_coordination",
    "coordination_distribution",
    "build_comp_node_failure",
    "build_comp_node_recovery",
    "build_correlated_failures",
    "build_io_node_failure",
    "build_io_nodes",
    "build_master",
    "build_system_reboot",
    "useful_work_reward",
    "breakdown_rewards",
    "USEFUL_WORK",
    "BREAKDOWN_NAMES",
    "names",
]
