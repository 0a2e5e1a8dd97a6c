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

from typing import List

from ...san import RewardVariable
from ..ledger import WorkLedger
from ..parameters import ModelParameters
from . import names

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


def useful_work_reward(ledger: WorkLedger) -> RewardVariable:
    """The paper's useful-work measure.

    Rate 1 while ``execution`` is marked; impulses subtract
    ``ledger.last_lost`` at the firings that roll the computation back
    (compute-node failures, and I/O-node failures that lose in-flight
    application data). Its time average over the observation window is
    the **useful work fraction**.
    """

    def lost(state, case: int) -> float:
        return -state.ctx.last_lost

    return RewardVariable(
        USEFUL_WORK,
        rate=lambda s: 1.0 if s.tokens(names.EXECUTION) else 0.0,
        impulses={"comp_failure": lost, "io_failure": lost},
        reads=(names.EXECUTION,),
    )


def breakdown_rewards() -> List[RewardVariable]:
    """Time-fraction diagnostics: execution, checkpointing (quiesce +
    dump), recovering (failed/stage1/stage2), rebooting, and time
    inside a correlated-failure window."""
    return [
        RewardVariable(
            "frac_execution",
            rate=lambda s: 1.0 if s.tokens(names.EXECUTION) else 0.0,
            reads=(names.EXECUTION,),
        ),
        RewardVariable(
            "frac_checkpointing",
            rate=lambda s: 1.0
            if (s.tokens(names.QUIESCING) or s.tokens(names.DUMPING))
            else 0.0,
            reads=(names.QUIESCING, names.DUMPING),
        ),
        RewardVariable(
            "frac_recovering",
            rate=lambda s: 1.0
            if (
                s.tokens(names.COMP_FAILED)
                or s.tokens(names.RECOVERING_S1)
                or s.tokens(names.RECOVERING_S2)
            )
            else 0.0,
            reads=(names.COMP_FAILED, names.RECOVERING_S1, names.RECOVERING_S2),
        ),
        RewardVariable(
            "frac_rebooting",
            rate=lambda s: 1.0 if s.tokens(names.REBOOTING) else 0.0,
            reads=(names.REBOOTING,),
        ),
        RewardVariable(
            "frac_corr_window",
            rate=lambda s: 1.0
            if (s.tokens(names.PROP_WINDOW) or s.tokens(names.GEN_WINDOW))
            else 0.0,
            reads=(names.PROP_WINDOW, names.GEN_WINDOW),
        ),
    ]
