"""Helpers shared by the failure-path submodels.

Several submodels trigger the same global consequences — a compute
rollback aborts any checkpoint in progress, resets the master and the
application, and dispatches recovery; severe failures reboot the whole
system. Centralising those marking updates keeps the submodels small
and the semantics consistent.
"""

from __future__ import annotations

from typing import Callable

from ...san import Exponential
from ..ledger import WorkLedger
from ..parameters import ModelParameters
from . import names

__all__ = [
    "compute_nodes_up",
    "failure_rate_multiplier",
    "modulated_failure_exponential",
    "abort_checkpoint_protocol",
    "roll_back_computation",
    "register_recovery_setback",
    "enter_reboot",
]


def compute_nodes_up(state) -> bool:
    """True while the compute nodes are operational (executing,
    quiescing or dumping) — the states in which a fresh compute-node
    failure can strike."""
    return bool(
        state.tokens(names.EXECUTION)
        or state.tokens(names.QUIESCING)
        or state.tokens(names.DUMPING)
    )


def failure_rate_multiplier(params: ModelParameters) -> Callable[[object], float]:
    """A ``state -> multiplier`` callable for failure rates.

    The multiplier combines the static uniform-mode generic factor
    ``1 + alpha * r`` with the window factor ``1 + r`` that applies
    while an error-propagation or modulated-mode window is open
    (Section 6).
    """
    elevated = params.correlated_rate_multiplier
    static = params.generic_uniform_multiplier

    def multiplier(state) -> float:
        if state.tokens(names.PROP_WINDOW) or state.tokens(names.GEN_WINDOW):
            return static * elevated
        return static

    return multiplier


def modulated_failure_exponential(
    params: ModelParameters, base_rate: float
) -> Exponential:
    """An exponential failure delay at ``base_rate`` scaled by the
    correlated-failure multiplier of :func:`failure_rate_multiplier`."""
    multiplier = failure_rate_multiplier(params)

    def rate(state) -> float:
        return base_rate * multiplier(state)

    return Exponential(rate)


def abort_checkpoint_protocol(state) -> None:
    """Abandon any checkpoint in progress: clear coordination, the
    timer and the master's protocol state. The previous checkpoint
    stays valid (nothing was captured)."""
    state.place(names.COORD_STARTED).clear()
    state.place(names.COORD_COMPLETE).clear()
    state.place(names.TIMER_ON).clear()
    state.place(names.TIMEDOUT).clear()
    state.place(names.MASTER_CKPT).clear()
    state.place(names.MASTER_SLEEP).set(1)


def roll_back_computation(state, ledger: WorkLedger, cause: str) -> None:
    """A failure forces the application back to the last checkpoint.

    ``cause`` selects the ledger transition: ``"compute"`` for a
    compute-node failure, ``"app_data"`` for an I/O-node failure that
    lost in-flight application data. Both roll ``total_work`` back to
    the recovery point and record the lost amount for the impulse
    reward.
    """
    if cause == "compute":
        ledger.compute_failure()
    elif cause == "app_data":
        ledger.app_data_lost()
    else:
        raise ValueError(f"unknown rollback cause {cause!r}")
    state.place(names.EXECUTION).clear()
    state.place(names.QUIESCING).clear()
    state.place(names.DUMPING).clear()
    state.place(names.APP_COMPUTE).clear()
    state.place(names.APP_IO).clear()
    state.place(names.APP_DATA_PENDING).clear()
    abort_checkpoint_protocol(state)
    state.place(names.COMP_FAILED).set(1)


def enter_reboot(state, ledger: WorkLedger) -> None:
    """Severe failures: reboot the whole system (compute and I/O).

    I/O-node memory is lost, so any buffered-but-not-durable
    checkpoint is gone; after the reboot the compute nodes still need
    to read the last durable checkpoint and recover (paper Section 4).
    """
    state.place(names.COMP_FAILED).clear()
    state.place(names.RECOVERING_S1).clear()
    state.place(names.RECOVERING_S2).clear()
    state.place(names.RECOVERY_FAILURES).clear()
    state.place(names.IO_IDLE).clear()
    state.place(names.IO_WRITING_CKPT).clear()
    state.place(names.IO_WRITING_APP).clear()
    state.place(names.IO_RESTARTING).clear()
    state.place(names.ENABLE_CHKPT).clear()
    state.place(names.REBOOTING).set(1)
    ledger.invalidate_buffer(reboot=True)


def register_recovery_setback(state, params: ModelParameters, ledger: WorkLedger) -> None:
    """A failure interrupted recovery: count it, restart recovery, and
    reboot the whole system once the unsuccessful-recovery count
    exceeds the configured threshold."""
    ledger.recovery_interrupted()
    counter = state.place(names.RECOVERY_FAILURES)
    counter.add(1)
    threshold = params.recovery_failure_threshold
    state.place(names.RECOVERING_S1).clear()
    state.place(names.RECOVERING_S2).clear()
    if threshold is not None and counter.tokens > threshold:
        enter_reboot(state, ledger)
    else:
        state.place(names.COMP_FAILED).set(1)
