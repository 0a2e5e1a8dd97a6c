"""The ``master`` submodel (paper Figure 2d).

A single coordinator node periodically initiates checkpointing: when
the checkpoint interval expires the master moves from ``master_sleep``
to ``master_checkpointing`` and (when a timeout is configured) starts
its timer. If the timer expires before coordination completes, a
``timedout`` token is produced; the ``skip_chkpt`` activity in the
compute-nodes submodel then aborts the checkpoint.

Master failures follow Section 3.4: outside checkpointing the master
recovers independently with no system effect (not modeled, exactly as
in the paper); a failure *during* checkpointing aborts the protocol
and resets the master to its initial state — the ``master_failure``
activity, at the one-node failure rate.
"""

from __future__ import annotations

from ...san import (
    Arc,
    Case,
    Deterministic,
    InputGate,
    OutputGate,
    SANModel,
    TimedActivity,
)
from ..ledger import WorkLedger
from ..parameters import ModelParameters
from . import names
from .common import modulated_failure_exponential

__all__ = ["build_master"]


def build_master(model: SANModel, params: ModelParameters, ledger: WorkLedger) -> None:
    """Add the master's places and activities to ``model``."""
    master_sleep = model.add_place(names.MASTER_SLEEP, initial=1)
    master_ckpt = model.add_place(names.MASTER_CKPT)
    timer_on = model.add_place(names.TIMER_ON)
    timedout = model.add_place(names.TIMEDOUT)
    execution = model.add_place(names.EXECUTION, initial=1)

    timeout_configured = params.timeout is not None

    def arm_protocol(state) -> None:
        state.place(names.MASTER_CKPT).set(1)
        if timeout_configured:
            state.place(names.TIMER_ON).set(1)

    # The interval timer runs while the system computes; a failure
    # resets the master, and the next interval counts from the moment
    # execution resumes (gate on `execution`).
    model.add_activity(
        TimedActivity(
            "ckpt_trigger",
            Deterministic(params.checkpoint_interval),
            input_arcs=[Arc(master_sleep)],
            input_gates=[
                InputGate(
                    "system_computing",
                    # Captured Place: direct attribute read, no name
                    # lookup; `reads=` still drives the index.
                    predicate=lambda s, _p=execution: _p.tokens > 0,
                    reads=[names.EXECUTION],
                )
            ],
            cases=[Case(output_gates=[OutputGate("arm_protocol", arm_protocol)])],
        ),
        submodel="master",
    )

    if timeout_configured:
        model.add_activity(
            TimedActivity(
                "master_timer",
                Deterministic(float(params.timeout)),
                input_arcs=[Arc(timer_on)],
                cases=[Case(output_arcs=[Arc(timedout)])],
            ),
            submodel="master",
        )

    # A master failure mid-protocol aborts the checkpoint: the compute
    # nodes abandon it and proceed (the previous checkpoint stays
    # valid), and the master returns to its initial state.
    model.add_place(names.QUIESCING)
    model.add_place(names.DUMPING)
    def abort_protocol(state) -> None:
        ledger.master_failed_during_checkpointing()
        if state.tokens(names.QUIESCING):
            state.place(names.QUIESCING).clear()
            state.place(names.EXECUTION).add(1)
        if state.tokens(names.DUMPING):
            state.place(names.DUMPING).clear()
            state.place(names.EXECUTION).add(1)
        state.place(names.COORD_STARTED).clear()
        state.place(names.COORD_COMPLETE).clear()
        state.place(names.TIMER_ON).clear()
        state.place(names.TIMEDOUT).clear()
        state.place(names.MASTER_CKPT).clear()
        state.place(names.MASTER_SLEEP).set(1)

    model.add_activity(
        TimedActivity(
            "master_failure",
            modulated_failure_exponential(params, params.node_failure_rate),
            input_gates=[
                InputGate(
                    "checkpointing_in_progress",
                    predicate=lambda s, _p=master_ckpt: _p.tokens > 0,
                    function=abort_protocol,
                    reads=[names.MASTER_CKPT],
                )
            ],
            resample_on=[names.PROP_WINDOW, names.GEN_WINDOW],
        ),
        submodel="master",
    )
