"""Whole-model invariants, checked after every single event.

These are the structural truths of the composed SAN: the compute nodes
are in at most one protocol state, the master is always either asleep
or checkpointing, the I/O nodes hold exactly one state except during a
whole-system reboot, and the work ledger never promises more saved
work than was done. Stress configurations (high failure rates, tight
timeouts, correlated bursts, I/O churn) hunt for wiring bugs that
aggregate measures would average away.
"""

import pytest

from repro.core import HOUR, MINUTE, YEAR, ModelParameters, build_system
from repro.core.submodels import names, useful_work_reward
from repro.obs.trace import TraceSink
from repro.san import Simulator, StreamRegistry


class InvariantChecker(TraceSink):
    """Asserts model invariants at every firing it is sent."""

    def __init__(self, state, ledger):
        self.state = state
        self.ledger = ledger
        self.events = 0

    def emit(self, time, kind, name, **fields):
        state = self.state
        self.events += 1

        compute_states = (
            state.tokens(names.EXECUTION)
            + state.tokens(names.QUIESCING)
            + state.tokens(names.DUMPING)
        )
        assert compute_states <= 1, f"compute nodes in {compute_states} states"

        assert (
            state.tokens(names.MASTER_SLEEP) + state.tokens(names.MASTER_CKPT) == 1
        ), "master neither asleep nor checkpointing"

        io_states = (
            state.tokens(names.IO_IDLE)
            + state.tokens(names.IO_WRITING_CKPT)
            + state.tokens(names.IO_WRITING_APP)
            + state.tokens(names.IO_RESTARTING)
        )
        if state.tokens(names.REBOOTING):
            assert io_states == 0, "I/O nodes active during a reboot"
        else:
            assert io_states == 1, f"I/O nodes in {io_states} states"

        app_states = state.tokens(names.APP_COMPUTE) + state.tokens(names.APP_IO)
        assert app_states <= 1, "application in two phases"
        if compute_states == 1 and state.tokens(names.EXECUTION):
            assert app_states == 1, "executing with no application phase"

        # Single-token state places never accumulate tokens.
        for name in (
            names.EXECUTION,
            names.QUIESCING,
            names.DUMPING,
            names.COMP_FAILED,
            names.RECOVERING_S1,
            names.RECOVERING_S2,
            names.REBOOTING,
            names.COORD_STARTED,
            names.COORD_COMPLETE,
            names.TIMER_ON,
            names.TIMEDOUT,
            names.PROP_WINDOW,
            names.GEN_WINDOW,
        ):
            assert state.tokens(name) <= 1, f"place {name} overfilled"

        # Ledger sanity.
        assert self.ledger.recovery_point <= self.ledger.total_work + 1e-9
        assert self.ledger.durable_work <= self.ledger.total_work + 1e-9
        assert self.ledger.last_lost >= 0.0


STRESS_CONFIGS = {
    "base": ModelParameters(mttf_node=0.1 * YEAR),
    "timeouts": ModelParameters(
        mttf_node=0.1 * YEAR,
        timeout=12.0,
        coordination_mode="max_of_exponentials",
    ),
    "correlated-bursts": ModelParameters(
        mttf_node=0.05 * YEAR,
        prob_correlated_failure=0.5,
        frate_correlated_factor=800.0,
    ),
    "reboot-churn": ModelParameters(
        mttf_node=0.02 * YEAR,
        mttr=30 * MINUTE,
        recovery_failure_threshold=1,
    ),
    "io-churn": ModelParameters(
        n_processors=512,
        processors_per_node=8,
        mttf_node=0.003 * YEAR,
        compute_fraction=0.88,
    ),
    "generic-modulated": ModelParameters(
        mttf_node=0.05 * YEAR,
        generic_correlated_coefficient=0.1,
        generic_correlated_mode="modulated",
        frate_correlated_factor=50.0,
    ),
    "synchronous-writes": ModelParameters(
        mttf_node=0.05 * YEAR,
        background_checkpoint_write=False,
    ),
}


@pytest.mark.parametrize("label", sorted(STRESS_CONFIGS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_invariants_hold_under_stress(label, seed):
    params = STRESS_CONFIGS[label]
    system = build_system(params)
    simulator = Simulator(
        system.model, ctx=system.ledger, streams=StreamRegistry(seed)
    )
    checker = InvariantChecker(simulator.state, system.ledger)
    simulator.sink = checker
    simulator.run(until=60 * HOUR, rewards=[useful_work_reward(system)])
    assert checker.events > 100, "stress run produced too few events to matter"
