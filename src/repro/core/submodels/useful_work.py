"""The ``useful_work`` submodel (paper Section 7's measures).

Useful work accrues at rate 1 while the compute nodes execute (both
application computation and application I/O count — Section 4), and a
negative impulse equal to the lost work applies at every failure that
forces a rollback. The continuous bookkeeping (what exactly is lost,
given buffered/durable checkpoint generations) lives in
:class:`~repro.core.ledger.WorkLedger`; this module defines the reward
variables the paper reports plus a set of time-breakdown diagnostics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ...san import RewardVariable
from . import names

if TYPE_CHECKING:
    from ..system import CheckpointSystem

__all__ = ["useful_work_reward", "breakdown_rewards", "USEFUL_WORK", "BREAKDOWN_NAMES"]

#: Name of the headline reward variable.
USEFUL_WORK = "useful_work"

#: Names of the time-breakdown reward variables.
BREAKDOWN_NAMES = (
    "frac_execution",
    "frac_checkpointing",
    "frac_recovering",
    "frac_rebooting",
    "frac_corr_window",
)


def useful_work_reward(system: "CheckpointSystem") -> RewardVariable:
    """The paper's useful-work measure on a built ``system``.

    Rate 1 while ``execution`` is marked; impulses subtract the work
    ledger's ``last_lost`` at the firings that roll the computation
    back (compute-node failures, and I/O-node failures that lose
    in-flight application data). Its time average over the observation
    window is the **useful work fraction**. The rate reads the
    system's ``execution`` place directly, as the gate predicates do.
    """
    execution = system.model.place(names.EXECUTION)

    def lost(state, case: int) -> float:
        return -state.ctx.last_lost

    return RewardVariable(
        USEFUL_WORK,
        rate=lambda s: 1.0 if execution.tokens else 0.0,
        impulses={"comp_failure": lost, "io_failure": lost},
        reads=(names.EXECUTION,),
    )


def breakdown_rewards(system: "CheckpointSystem") -> List[RewardVariable]:
    """Time-fraction diagnostics on a built ``system``: execution,
    checkpointing (quiesce + dump), recovering (failed/stage1/stage2),
    rebooting, and time inside a correlated-failure window. Each rate
    reads the system's places directly, as the gate predicates do."""
    place = system.model.place
    execution = place(names.EXECUTION)
    quiescing, dumping = place(names.QUIESCING), place(names.DUMPING)
    comp_failed = place(names.COMP_FAILED)
    recovering_s1 = place(names.RECOVERING_S1)
    recovering_s2 = place(names.RECOVERING_S2)
    rebooting = place(names.REBOOTING)
    prop_window, gen_window = place(names.PROP_WINDOW), place(names.GEN_WINDOW)
    return [
        RewardVariable(
            "frac_execution",
            rate=lambda s: 1.0 if execution.tokens else 0.0,
            reads=(names.EXECUTION,),
        ),
        RewardVariable(
            "frac_checkpointing",
            rate=lambda s: 1.0
            if (quiescing.tokens or dumping.tokens)
            else 0.0,
            reads=(names.QUIESCING, names.DUMPING),
        ),
        RewardVariable(
            "frac_recovering",
            rate=lambda s: 1.0
            if (
                comp_failed.tokens
                or recovering_s1.tokens
                or recovering_s2.tokens
            )
            else 0.0,
            reads=(names.COMP_FAILED, names.RECOVERING_S1, names.RECOVERING_S2),
        ),
        RewardVariable(
            "frac_rebooting",
            rate=lambda s: 1.0 if rebooting.tokens else 0.0,
            reads=(names.REBOOTING,),
        ),
        RewardVariable(
            "frac_corr_window",
            rate=lambda s: 1.0
            if (prop_window.tokens or gen_window.tokens)
            else 0.0,
            reads=(names.PROP_WINDOW, names.GEN_WINDOW),
        ),
    ]
