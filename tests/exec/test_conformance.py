"""Executor conformance: every implementation is interchangeable.

The serial executor is the reference; the pool and queue executors
must produce the same outcomes for the same submissions, satisfy the
same protocol, and — driven through :func:`run_sweep` — yield
bit-identical figures, journals, and archives. These tests run each
assertion parametrically over all three executor ids.
"""

import json
import os

import pytest

from repro.backends import EvaluationPlan
from repro.core import HOUR, ModelParameters, SimulationPlan
from repro.exec import (
    EXECUTOR_IDS,
    EvaluationTask,
    Executor,
    ExecutorError,
    make_executor,
)
from repro.experiments import ResilienceOptions, SweepPoint, run_sweep
from repro.experiments.archive import save_figure

TINY_SIM = SimulationPlan(warmup=2 * HOUR, observation=20 * HOUR, replications=2)
TINY = EvaluationPlan(simulation=TINY_SIM)


def build(name, tmp_path, **kwargs):
    """A ready executor of the given id (queue rooted under tmp_path)."""
    if name == "queue":
        kwargs.setdefault("queue_dir", str(tmp_path / "queue"))
    return make_executor(name, **kwargs)


def make_tasks(count=3, base_seed=11):
    params = ModelParameters(n_processors=8192)
    return [
        EvaluationTask(
            index=i,
            series="s",
            x=float(i + 1),
            params=params.with_overrides(n_processors=8192 * (i + 1)),
            plan=TINY,
            backend="analytical",
            base_seed=base_seed + i,
        )
        for i in range(count)
    ]


def sweep_points():
    base = ModelParameters(n_processors=8192)
    return [
        SweepPoint("s", 8192, base),
        SweepPoint("s", 16384, base.with_overrides(n_processors=16384)),
        SweepPoint("s", 32768, base.with_overrides(n_processors=32768)),
    ]


@pytest.mark.parametrize("name", EXECUTOR_IDS)
class TestProtocolConformance:
    def test_satisfies_protocol(self, name, tmp_path):
        executor = build(name, tmp_path)
        try:
            assert isinstance(executor, Executor)
            assert executor.capabilities.name == name
            assert executor.notes == []
            assert executor.pending == 0
        finally:
            executor.close()

    def test_executes_submissions_and_counts_them(self, name, tmp_path):
        executor = build(name, tmp_path)
        tasks = make_tasks()
        try:
            for task in tasks:
                executor.submit(task)
            assert executor.pending == len(tasks)
            results = list(executor.drain())
            assert executor.pending == 0
        finally:
            executor.close()
        assert len(results) == len(tasks)
        assert all(result.ok for result in results)
        stats = executor.stats()
        assert stats["executor"] == name
        assert stats["tasks_executed"] == len(tasks)

    def test_matches_serial_reference_outcomes(self, name, tmp_path):
        reference = build("serial", tmp_path)
        executor = build(name, tmp_path)
        try:
            for task in make_tasks():
                reference.submit(task)
                executor.submit(task)
            expected = {r.index: r.outcome for r in reference.drain()}
            got = {r.index: r.outcome for r in executor.drain()}
        finally:
            reference.close()
            executor.close()
        assert got == expected

    def test_resubmission_after_drain_is_accepted(self, name, tmp_path):
        # The retry layer interleaves submit() with drain(); a drained
        # executor must accept new work (a fresh attempt is new work
        # for the deduplicating queue too: the seed differs).
        executor = build(name, tmp_path)
        task = make_tasks(1)[0]
        try:
            executor.submit(task)
            first = list(executor.drain())
            executor.submit(task.with_attempt(1))
            second = list(executor.drain())
        finally:
            executor.close()
        assert len(first) == len(second) == 1
        assert second[0].ok
        assert second[0].seed_used != first[0].seed_used

    def test_close_is_idempotent(self, name, tmp_path):
        executor = build(name, tmp_path)
        executor.close()
        executor.close()


class TestSweepParity:
    """The same sweep through every executor is bit-identical."""

    def run_one(self, tmp_path, label, executor=None):
        out_dir = tmp_path / label
        figure = run_sweep(
            "figx", "t", "x", "useful_work_fraction", sweep_points(),
            TINY_SIM, seed=5, backend="analytical",
            resilience=ResilienceOptions(
                checkpoint_dir=str(out_dir / "journal")
            ),
            executor=executor,
            queue_dir=str(out_dir / "queue") if executor == "queue" else None,
        )
        save_figure(figure, str(out_dir / "archive"))
        return figure, out_dir

    @pytest.mark.parametrize("name", EXECUTOR_IDS)
    def test_archive_and_journal_match_legacy_path(self, name, tmp_path):
        legacy, legacy_dir = self.run_one(tmp_path, "legacy", executor=None)
        figure, out_dir = self.run_one(tmp_path, name, executor=name)
        assert figure.series == legacy.series
        assert figure.failures == legacy.failures

        with open(legacy_dir / "archive" / "figx.json", encoding="utf-8") as fh:
            reference_archive = fh.read()
        with open(out_dir / "archive" / "figx.json", encoding="utf-8") as fh:
            assert fh.read() == reference_archive

        def journal_points(root):
            path = root / "journal" / "figx.journal.jsonl"
            with open(path, encoding="utf-8") as handle:
                records = [json.loads(line) for line in handle]
            return [r for r in records if r.get("kind") == "point"]

        assert journal_points(out_dir) == journal_points(legacy_dir)

    @pytest.mark.parametrize("name", EXECUTOR_IDS)
    def test_manifest_records_executor(self, name, tmp_path):
        figure, _ = self.run_one(tmp_path, name, executor=name)
        section = figure.manifest.execution
        assert section["executor"] == name
        assert section["tasks_executed"] == len(sweep_points())


class TestMakeExecutor:
    def test_unknown_name_rejected(self):
        with pytest.raises(ExecutorError, match="unknown executor"):
            make_executor("carrier-pigeon")

    def test_queue_requires_directory(self):
        with pytest.raises(ExecutorError, match="--queue-dir"):
            make_executor("queue")

    def test_bad_executor_fails_before_the_journal_opens(self, tmp_path):
        # The sweep builds its executor first, so a queue without a
        # directory leaves no journal file (and no open handle) behind.
        with pytest.raises(ExecutorError, match="queue directory"):
            run_sweep(
                "figx", "t", "x", "useful_work_fraction", sweep_points(),
                TINY_SIM, seed=5, backend="analytical", executor="queue",
                resilience=ResilienceOptions(checkpoint_dir=str(tmp_path)),
            )
        assert not (tmp_path / "figx.journal.jsonl").exists()

    def test_borrowed_executor_instance_is_left_open(self, tmp_path):
        # run_sweep must not close an executor it was handed: the
        # caller may be sharing it across figures.
        executor = build("queue", tmp_path)
        try:
            figure = run_sweep(
                "figx", "t", "x", "useful_work_fraction", sweep_points(),
                TINY_SIM, seed=5, backend="analytical", executor=executor,
            )
            assert figure.manifest.execution["executor"] == "queue"
            # Still usable: a second sweep coalesces against the first.
            again = run_sweep(
                "figx", "t", "x", "useful_work_fraction", sweep_points(),
                TINY_SIM, seed=5, backend="analytical", executor=executor,
            )
            assert again.series == figure.series
            assert again.manifest.execution["coalesced"] == len(sweep_points())
            assert again.manifest.execution["tasks_executed"] == len(
                sweep_points()
            )
        finally:
            executor.close()


class TestSerialCooperativeTimeout:
    def test_point_timeout_is_cooperative_and_noted(self, tmp_path):
        # In-process executors cannot preempt; a tiny point_timeout
        # must fold into the simulation's wall-clock budget and fail
        # the point through the normal retry path, with a note saying
        # the enforcement is cooperative.
        slow = SimulationPlan(
            warmup=2 * HOUR, observation=2000 * HOUR, replications=4
        )
        figure = run_sweep(
            "figx", "t", "x", "useful_work_fraction",
            [SweepPoint("s", 8192, ModelParameters(n_processors=8192))],
            slow, seed=5, backend="san-sim",
            resilience=ResilienceOptions(point_timeout=1e-6),
            executor="serial",
        )
        assert len(figure.failures) == 1
        assert figure.failures[0].error_type == "WallClockExceededError"
        assert any("point_timeout" in note for note in figure.notes)


class TestOneTimeoutOwner:
    """The pool is the only executor that takes a timeout, and
    ``execute_task`` makes one attempt with no deadline of its own."""

    @pytest.mark.parametrize(
        "cls, takes_timeout",
        [("SerialExecutor", False), ("QueueExecutor", False),
         ("PoolExecutor", True)],
    )
    def test_only_the_pool_takes_a_timeout(self, cls, takes_timeout):
        import inspect

        import repro.exec as exec_pkg

        parameters = inspect.signature(getattr(exec_pkg, cls)).parameters
        assert ("point_timeout" in parameters) is takes_timeout

    def test_execute_task_has_no_deadline(self):
        import inspect

        from repro.exec import execute_task

        assert list(inspect.signature(execute_task).parameters) == [
            "task", "fault_plan",
        ]
