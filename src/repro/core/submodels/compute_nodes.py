"""The ``compute_nodes`` submodel (paper Figure 2a).

All compute nodes are modeled as a single aggregated unit cycling
through ``execution -> quiescing -> dumping -> execution``:

* when the master starts checkpointing, the nodes receive the
  'quiesce' broadcast (after the broadcast latency) and quiesce;
* once the application is at a safe point (``app_compute``), the
  coordination submodel measures how long the slowest node takes to
  reach 'ready';
* when coordination completes (and the master has not timed out) the
  nodes dump their checkpoint to the I/O nodes and return to
  execution;
* if the master times out first, ``skip_chkpt`` abandons the
  checkpoint and the nodes return to execution — the previous
  checkpoint stays valid.
"""

from __future__ import annotations

from ...san import (
    Arc,
    Case,
    Deterministic,
    InputGate,
    InstantaneousActivity,
    OutputGate,
    SANModel,
    TimedActivity,
)
from ..ledger import WorkLedger
from ..parameters import ModelParameters
from . import names

__all__ = ["build_compute_nodes"]


def build_compute_nodes(
    model: SANModel, params: ModelParameters, ledger: WorkLedger
) -> None:
    """Add the compute nodes' places and activities to ``model``."""
    execution = model.add_place(names.EXECUTION, initial=1)
    quiescing = model.add_place(names.QUIESCING)
    dumping = model.add_place(names.DUMPING)
    master_ckpt = model.add_place(names.MASTER_CKPT)
    timedout = model.add_place(names.TIMEDOUT)
    coord_started = model.add_place(names.COORD_STARTED)
    coord_complete = model.add_place(names.COORD_COMPLETE)
    app_compute = model.add_place(names.APP_COMPUTE, initial=1)
    io_idle = model.add_place(names.IO_IDLE, initial=1)

    # 'quiesce' broadcast reaches the nodes after the broadcast latency.
    model.add_activity(
        TimedActivity(
            "recv_quiesce",
            Deterministic(params.quiesce_broadcast_latency),
            input_arcs=[Arc(execution)],
            input_gates=[
                InputGate(
                    "master_requested_quiesce",
                    # Predicates capture their Place objects (default
                    # args): direct attribute reads skip the per-call
                    # name lookup. `reads=` still drives the
                    # dependency index.
                    predicate=lambda s, _p=master_ckpt: _p.tokens > 0,
                    reads=[names.MASTER_CKPT],
                )
            ],
            cases=[Case(output_arcs=[Arc(quiescing)])],
        ),
        submodel="compute_nodes",
    )

    # Coordination starts once the application reaches a safe point
    # (tasks performing I/O writes cannot quiesce until the I/O
    # completes — Section 3.3).
    model.add_activity(
        InstantaneousActivity(
            "to_coordination",
            input_gates=[
                InputGate(
                    "safe_point_reached",
                    predicate=lambda s, _q=quiescing, _a=app_compute, _cs=coord_started, _cc=coord_complete, _t=timedout: (
                        _q.tokens > 0
                        and _a.tokens > 0
                        and _cs.tokens == 0
                        and _cc.tokens == 0
                        and _t.tokens == 0
                    ),
                    reads=[
                        names.QUIESCING,
                        names.APP_COMPUTE,
                        names.COORD_STARTED,
                        names.COORD_COMPLETE,
                        names.TIMEDOUT,
                    ],
                )
            ],
            cases=[Case(output_arcs=[Arc(coord_started)])],
            priority=15,
        ),
        submodel="compute_nodes",
    )

    def stop_timer(state) -> None:
        # All 'ready' responses arrived: the master disarms its timer
        # and broadcasts 'checkpoint'.
        state.place(names.TIMER_ON).clear()

    model.add_activity(
        InstantaneousActivity(
            "coordinate",
            input_arcs=[Arc(quiescing), Arc(coord_complete)],
            input_gates=[
                InputGate(
                    "not_timed_out",
                    predicate=lambda s, _p=timedout: _p.tokens == 0,
                    reads=[names.TIMEDOUT],
                )
            ],
            cases=[
                Case(
                    output_arcs=[Arc(dumping)],
                    output_gates=[OutputGate("stop_timer", stop_timer)],
                )
            ],
            priority=20,
        ),
        submodel="compute_nodes",
    )

    def abandon_checkpoint(state) -> None:
        # The master broadcast 'abort': clear the protocol state; the
        # previous checkpoint remains the recovery point.
        state.place(names.COORD_STARTED).clear()
        state.place(names.COORD_COMPLETE).clear()
        state.place(names.TIMER_ON).clear()
        state.place(names.MASTER_CKPT).clear()
        state.place(names.MASTER_SLEEP).set(1)

    model.add_activity(
        InstantaneousActivity(
            "skip_chkpt",
            input_arcs=[Arc(timedout), Arc(quiescing)],
            cases=[
                Case(
                    output_arcs=[Arc(execution)],
                    output_gates=[OutputGate("abandon_checkpoint", abandon_checkpoint)],
                )
            ],
            on_fire=lambda state, case: ledger.checkpoint_aborted_timeout(),
            priority=10,
        ),
        submodel="compute_nodes",
    )

    background = params.background_checkpoint_write
    if background:
        blocking_time = params.checkpoint_dump_time
    else:
        # Ablation: the file-system write is synchronous, so the
        # compute nodes stay blocked through it and the checkpoint is
        # durable when the dump activity completes.
        blocking_time = params.checkpoint_dump_time + params.checkpoint_fs_write_time

    def complete_dump(state) -> None:
        # The master collects 'done', broadcasts 'proceed', and the
        # application resumes at its safe point in the compute phase;
        # with two-step I/O the I/O nodes now hold the checkpoint and
        # write it to the file system in the background.
        if background:
            state.place(names.ENABLE_CHKPT).add(1)
        state.place(names.MASTER_CKPT).clear()
        state.place(names.MASTER_SLEEP).set(1)
        state.place(names.APP_COMPUTE).set(1)
        state.place(names.APP_IO).clear()

    def record_checkpoint(state, case) -> None:
        ledger.checkpoint_buffered()
        if not background:
            ledger.checkpoint_committed()

    model.add_activity(
        TimedActivity(
            "dump_chkpt",
            Deterministic(blocking_time),
            input_arcs=[Arc(dumping)],
            input_gates=[
                InputGate(
                    "ionode_is_idle",
                    predicate=lambda s, _p=io_idle: _p.tokens > 0,
                    reads=[names.IO_IDLE],
                )
            ],
            cases=[
                Case(
                    output_arcs=[Arc(execution)],
                    output_gates=[OutputGate("complete_dump", complete_dump)],
                )
            ],
            on_fire=record_checkpoint,
        ),
        submodel="compute_nodes",
    )
