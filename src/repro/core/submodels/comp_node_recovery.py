"""The ``comp_node_recovery`` submodel.

Recovery runs in two stages (paper Section 4):

1. the I/O nodes read the last durable checkpoint back from the file
   system — skipped when a valid copy is still buffered in their
   memory;
2. the compute nodes read the checkpoint from the I/O nodes and
   reinitialise (the system-wide MTTR, exponential with mean 10 min).

Failures can strike *during* recovery: each one restarts recovery (no
extra work is lost — nothing accrues while recovering) and counts as
an unsuccessful recovery; exceeding the configured threshold reboots
the whole system. A successful recovery resumes execution, resets the
master, clears the unsuccessful-recovery count and closes any
error-propagation correlated-failure window.
"""

from __future__ import annotations

from ...san import (
    Arc,
    Case,
    Deterministic,
    Distribution,
    Erlang,
    Exponential,
    InputGate,
    InstantaneousActivity,
    OutputGate,
    SANModel,
    TimedActivity,
)
from ..ledger import WorkLedger
from ..parameters import ModelParameters
from . import names
from .common import modulated_failure_exponential, register_recovery_setback

__all__ = ["build_comp_node_recovery", "recovery_distribution"]


def recovery_distribution(params: ModelParameters) -> Distribution:
    """The stage-2 recovery-time distribution (mean MTTR in each case)."""
    shape = params.recovery_distribution
    if shape == "exponential":
        return Exponential(1.0 / params.mttr)
    if shape == "erlang2":
        return Erlang(2, 2.0 / params.mttr)
    if shape == "deterministic":
        return Deterministic(params.mttr)
    raise ValueError(f"unknown recovery distribution {shape!r}")


def build_comp_node_recovery(
    model: SANModel, params: ModelParameters, ledger: WorkLedger
) -> None:
    """Add the recovery places and activities to ``model``."""
    comp_failed = model.add_place(names.COMP_FAILED)
    stage1 = model.add_place(names.RECOVERING_S1)
    stage2 = model.add_place(names.RECOVERING_S2)
    model.add_place(names.RECOVERY_FAILURES)
    model.add_place(names.REBOOTING)
    execution = model.add_place(names.EXECUTION, initial=1)

    def dispatch_recovery(state) -> None:
        # Stage 1 is skipped when the checkpoint is still buffered in
        # the I/O nodes' memory.
        if ledger.buffered_valid:
            state.place(names.RECOVERING_S2).set(1)
        else:
            state.place(names.RECOVERING_S1).set(1)

    model.add_activity(
        InstantaneousActivity(
            "start_recovery",
            input_arcs=[Arc(comp_failed)],
            input_gates=[
                InputGate(
                    "not_rebooting",
                    predicate=lambda s: s.tokens(names.REBOOTING) == 0,
                    reads=[names.REBOOTING],
                )
            ],
            cases=[Case(output_gates=[OutputGate("dispatch_recovery", dispatch_recovery)])],
            priority=30,
        ),
        submodel="comp_node_recovery",
    )

    model.add_activity(
        TimedActivity(
            "read_ckpt_fs",
            Deterministic(params.checkpoint_fs_read_time),
            input_arcs=[Arc(stage1)],
            input_gates=[
                InputGate(
                    "io_nodes_available",
                    predicate=lambda s: s.tokens(names.IO_RESTARTING) == 0,
                    reads=[names.IO_RESTARTING],
                )
            ],
            cases=[Case(output_arcs=[Arc(stage2)])],
            on_fire=lambda state, case: ledger.buffer_restored(),
        ),
        submodel="comp_node_recovery",
    )

    def complete_recovery(state) -> None:
        state.place(names.APP_COMPUTE).set(1)
        state.place(names.APP_IO).clear()
        state.place(names.RECOVERY_FAILURES).clear()
        # A successful recovery restores the system state and exits the
        # error-propagation correlated-failure window (Section 4).
        state.place(names.PROP_WINDOW).clear()

    model.add_activity(
        TimedActivity(
            "recovery_complete",
            recovery_distribution(params),
            input_arcs=[Arc(stage2)],
            cases=[
                Case(
                    output_arcs=[Arc(execution)],
                    output_gates=[OutputGate("complete_recovery", complete_recovery)],
                )
            ],
            on_fire=lambda state, case: ledger.recovered(),
        ),
        submodel="comp_node_recovery",
    )

    def in_recovery(state) -> bool:
        return bool(
            state.tokens(names.RECOVERING_S1) or state.tokens(names.RECOVERING_S2)
        )

    def on_recovery_failure(state) -> None:
        register_recovery_setback(state, params, ledger)

    def open_window(state) -> None:
        state.place(names.PROP_WINDOW).set(1)

    p_e = params.prob_correlated_failure
    model.add_activity(
        TimedActivity(
            "recovery_failure",
            modulated_failure_exponential(params, params.compute_failure_rate),
            input_gates=[
                InputGate(
                    "recovering",
                    predicate=in_recovery,
                    function=on_recovery_failure,
                    # The gate function also reads/writes the
                    # unsuccessful-recovery counter (threshold check).
                    reads=[
                        names.RECOVERING_S1,
                        names.RECOVERING_S2,
                        names.RECOVERY_FAILURES,
                    ],
                )
            ],
            cases=[
                Case(output_gates=[OutputGate("open_prop_window_recovery", open_window)]),
                Case(),
            ],
            case_probabilities=[p_e, 1.0 - p_e],
            resample_on=[names.PROP_WINDOW, names.GEN_WINDOW],
        ),
        submodel="comp_node_recovery",
    )
