"""Scenario tests for the recovery paths and protocol interactions."""

import pytest

from repro.core import HOUR, MINUTE, YEAR, ModelParameters, build_system
from repro.core.submodels import USEFUL_WORK, useful_work_reward
from repro.obs.trace import MemorySink
from repro.san import Simulator, StreamRegistry


def run_traced(params, horizon, seed=1):
    system = build_system(params)
    sink = MemorySink()
    simulator = Simulator(
        system.model, ctx=system.ledger, streams=StreamRegistry(seed), sink=sink
    )
    output = simulator.run(
        until=horizon, rewards=[useful_work_reward(system.ledger)]
    )
    return output, system.ledger, sink


class TestTwoStageRecovery:
    def test_buffered_checkpoint_skips_stage1(self):
        # I/O-node failures are rare at this scale, so the buffer is
        # almost always valid and stage 1 (file-system read) is almost
        # always skipped.
        params = ModelParameters(mttf_node=0.25 * YEAR)
        output, ledger, _ = run_traced(params, 200 * HOUR, seed=3)
        recoveries = ledger.counters.recoveries
        stage1_reads = output.firings.get("read_ckpt_fs", 0)
        assert recoveries > 20
        assert stage1_reads < 0.2 * recoveries

    def test_io_failures_force_stage1(self):
        # A single-group system with a terrible MTTF: I/O failures
        # invalidate the buffer often, so stage 1 must appear.
        params = ModelParameters(
            n_processors=512, processors_per_node=8, mttf_node=0.004 * YEAR
        )
        output, ledger, _ = run_traced(params, 500 * HOUR, seed=5)
        assert ledger.counters.io_failures >= 3
        # Every I/O failure invalidates the buffer, so the next
        # recovery must re-read the checkpoint from the file system.
        assert output.firings.get("read_ckpt_fs", 0) >= 1

    def test_recovery_sequence_ordering(self):
        # Every recovery completion is preceded by a failure, and the
        # system alternates failure -> recovery_complete (possibly with
        # recovery_failure restarts in between).
        params = ModelParameters(mttf_node=0.25 * YEAR)
        _, _, sink = run_traced(params, 100 * HOUR, seed=7)
        events = [
            e for e in sink.events
            if e.name in ("comp_failure", "recovery_complete")
        ]
        depth = 0
        for event in events:
            if event.name == "comp_failure":
                assert depth == 0, "failure while already recovering"
                depth += 1
            else:
                assert depth == 1, "recovery completion without failure"
                depth -= 1


class TestTimeoutAndAppIO:
    def test_timeout_during_app_io_aborts(self):
        # A 1-second timeout with a 10.8-second I/O phase: whenever the
        # quiesce request lands in an I/O phase, the master times out
        # while the node finishes its write.
        params = ModelParameters(
            mttf_node=1_000_000 * YEAR,
            timeout=1.0,
            compute_fraction=0.94,
        )
        output, ledger, _ = run_traced(params, 50 * HOUR, seed=9)
        assert ledger.counters.checkpoints_aborted_timeout > 0
        assert ledger.counters.checkpoints_buffered == 0

    def test_app_io_defers_coordination(self):
        # Without a timeout, quiesce requests landing in the I/O phase
        # simply wait; every checkpoint still completes.
        params = ModelParameters(
            mttf_node=1_000_000 * YEAR, compute_fraction=0.5,
            app_io_cycle_period=10 * MINUTE,
        )
        output, ledger, _ = run_traced(params, 50 * HOUR, seed=11)
        assert ledger.counters.checkpoints_aborted_timeout == 0
        assert ledger.counters.checkpoints_buffered > 50


class TestMasterFailure:
    def test_master_failure_aborts_round_without_rollback(self):
        # Stretch the vulnerable window (long quiesce) and raise the
        # node rate so master failures mid-protocol actually occur.
        params = ModelParameters(
            n_processors=512,
            processors_per_node=8,
            mttf_node=0.002 * YEAR,  # ~17.5 h per node
            mttq=300.0,
        )
        output, ledger, _ = run_traced(params, 1000 * HOUR, seed=13)
        assert ledger.counters.master_failures > 0
        # A master failure alone loses no work (no rollback impulse).
        assert output.firings.get("master_failure", 0) == (
            ledger.counters.master_failures
        )

    def test_no_master_failures_when_idle(self):
        # The master only fails (in the model) during checkpointing;
        # with checkpointing nearly instantaneous the exposure is tiny.
        params = ModelParameters(mttf_node=1 * YEAR, mttq=0.5)
        _, ledger, _ = run_traced(params, 100 * HOUR, seed=15)
        assert ledger.counters.master_failures <= 1


class TestSynchronousWriteAblation:
    def test_synchronous_write_blocks_longer(self):
        free = ModelParameters(mttf_node=1_000_000 * YEAR)
        sync = free.with_overrides(background_checkpoint_write=False)
        out_bg, ledger_bg, _ = run_traced(free, 50 * HOUR, seed=17)
        out_sync, ledger_sync, _ = run_traced(sync, 50 * HOUR, seed=17)
        assert out_sync.time_average(USEFUL_WORK) < out_bg.time_average(USEFUL_WORK)
        # Synchronous mode commits at dump completion: no separate
        # file-system write activity ever fires.
        assert out_sync.firings.get("write_chkpt", 0) == 0
        assert ledger_sync.counters.checkpoints_committed > 0

    def test_background_mode_commits_via_fs_write(self):
        params = ModelParameters(mttf_node=1_000_000 * YEAR)
        output, ledger, _ = run_traced(params, 20 * HOUR, seed=19)
        assert output.firings.get("write_chkpt", 0) == (
            ledger.counters.checkpoints_committed
        )
