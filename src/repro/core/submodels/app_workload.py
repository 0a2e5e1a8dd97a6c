"""The ``app_workload`` submodel (paper Figure 2c).

The application is a BSP-style parallel workload alternating between a
computation phase and an I/O phase (3-minute cycle, compute fraction
0.88 – 1.0). Two properties matter for checkpointing:

* the compute nodes can only quiesce at a safe point — a task in the
  middle of an I/O write must finish it first (``to_coordination`` in
  the compute-nodes submodel waits for ``app_compute``);
* completed I/O phases queue data for a background write from the I/O
  nodes to the file system; if an I/O node fails during that write the
  application's results are lost and the system rolls back.

The compute phase only progresses while the nodes execute (it freezes
during quiesce/dump and is reset by checkpoints and recoveries); the
I/O phase is non-preemptible and completes even while the master waits.
"""

from __future__ import annotations

from ...san import Arc, Case, Deterministic, InputGate, OutputGate, SANModel, TimedActivity
from ..ledger import WorkLedger
from ..parameters import ModelParameters
from . import names

__all__ = ["build_app_workload"]


def build_app_workload(
    model: SANModel, params: ModelParameters, ledger: WorkLedger
) -> None:
    """Add the application's phase cycle to ``model``."""
    app_compute = model.add_place(names.APP_COMPUTE, initial=1)
    app_io = model.add_place(names.APP_IO)
    app_pending = model.add_place(names.APP_DATA_PENDING)
    execution = model.add_place(names.EXECUTION, initial=1)

    if params.compute_fraction >= 1.0:
        # Pure-compute workload: the application never leaves its
        # compute phase, so there is no phase cycle to model.
        return

    model.add_activity(
        TimedActivity(
            "compute_phase_end",
            Deterministic(params.app_compute_phase),
            input_arcs=[Arc(app_compute)],
            input_gates=[
                InputGate(
                    "app_progressing",
                    # Captures the Place: this predicate runs on every
                    # application cycle, and the direct attribute read
                    # skips a name lookup per call. `reads=` still
                    # drives the dependency index.
                    predicate=lambda s, _execution=execution: _execution.tokens > 0,
                    reads=[names.EXECUTION],
                )
            ],
            cases=[Case(output_arcs=[Arc(app_io)])],
        ),
        submodel="app_workload",
    )

    def queue_background_write(state) -> None:
        # `add` flows through the place's dirty sink as usual; only the
        # name lookup is skipped (this gate runs every I/O phase).
        app_pending.add(1)

    # The I/O phase is not gated on `execution`: an in-flight I/O write
    # cannot be quiesced and runs to completion (Section 3.3).
    model.add_activity(
        TimedActivity(
            "app_io_end",
            Deterministic(params.app_io_phase),
            input_arcs=[Arc(app_io)],
            cases=[
                Case(
                    output_arcs=[Arc(app_compute)],
                    output_gates=[
                        OutputGate("queue_background_write", queue_background_write)
                    ],
                )
            ],
        ),
        submodel="app_workload",
    )
