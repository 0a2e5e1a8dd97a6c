"""Job API: submit / status / collect against a queue directory.

The contract under test: a submitted job persists every point as a
queue task plus a JSON record next to the queue; status is a
non-blocking poll of the results store; collect assembles a figure
identical to what the in-process sweep produces from the same
results. A stored result that cannot be read is a miss for all three.
"""

import json
import os

import pytest

from repro.exec import EvaluationTask, WorkQueue
from repro.exec import queue as queue_module
from repro.service import (
    JOB_SCHEMA_VERSION,
    JobError,
    collect_job,
    job_path,
    job_status,
    list_jobs,
    load_job,
    submit_job,
)
from repro.service import jobs as jobs_module
from repro.service.worker import ServiceWorker


def submit_small(queue_dir, **kwargs):
    defaults = dict(
        preset="quick", seed=3, max_points=3, tenant="acme",
        backend="analytical", name="smoke",
    )
    defaults.update(kwargs)
    return submit_job(str(queue_dir), "fig4a", **defaults)


class TestSubmit:
    def test_record_and_pending_files(self, tmp_path):
        record = submit_small(tmp_path)
        assert record.schema_version == JOB_SCHEMA_VERSION
        assert record.figure_id == "fig4a"
        assert record.tenant == "acme"
        assert record.submitted == 3
        assert len(record.points) == 3
        assert os.path.isfile(job_path(str(tmp_path), record.job_id))
        pending = sorted(os.listdir(tmp_path / "pending"))
        assert len(pending) == 3
        # The pending files are real executable tasks keyed by the
        # points' cache digests, in submission (= point) order.
        keys = [point["key"] for point in record.points]
        assert [name.split("-", 2)[2][: -len(".json")] for name in pending] == keys
        with open(tmp_path / "pending" / pending[0], encoding="utf-8") as fh:
            task = EvaluationTask.from_json_dict(json.load(fh))
        assert task.cache_key() == keys[0]

    def test_points_preserve_declared_x_type(self, tmp_path):
        # fig4a sweeps machine sizes: integral x values must stay
        # integral in the record, or the collected archive would not
        # be bit-identical to a serial run.
        record = submit_small(tmp_path)
        assert all(
            isinstance(point["x"], int) for point in record.points
        )

    def test_resubmission_coalesces(self, tmp_path):
        first = submit_small(tmp_path)
        again = submit_small(tmp_path)
        assert again.coalesced == 3
        assert len(os.listdir(tmp_path / "pending")) == 3
        assert sorted(list_jobs(str(tmp_path))) == sorted(
            [first.job_id, again.job_id]
        )

    def test_answered_points_are_served_from_results(self, tmp_path):
        first = submit_small(tmp_path)
        ServiceWorker(str(tmp_path), idle_exit=0.0).run()
        assert job_status(str(tmp_path), first.job_id).finished
        again = submit_small(tmp_path)
        assert again.served_from_cache == 3
        assert os.listdir(tmp_path / "pending") == []

    def test_unknown_figure_is_rejected(self, tmp_path):
        with pytest.raises(JobError, match="unknown figure"):
            submit_job(str(tmp_path), "fig999")

    def test_custom_figure_is_rejected(self, tmp_path):
        with pytest.raises(JobError, match="not a sweep"):
            submit_job(str(tmp_path), "fig3")

    def test_a_worker_claiming_mid_submit_counts_the_tenant(
        self, tmp_path, monkeypatch
    ):
        # A worker that claims the first pending file before the
        # submitter has finished must still find the job's tenant.
        from repro.obs import metrics

        reg = metrics.registry()
        evaluated = reg.counter("tenant.ci.evaluated")
        anonymous = reg.counter("tenant.anonymous.evaluated")
        before = (evaluated.value, anonymous.value)
        real_write = queue_module.atomic_write_json
        steps = []

        def write_then_step(path, payload):
            real_write(path, payload)
            pending = os.path.basename(os.path.dirname(path)) == "pending"
            if pending and not steps:
                steps.append(ServiceWorker(
                    str(tmp_path), idle_exit=0.0, max_tasks=1
                ).run())

        # Hook whichever module writes the pending files.
        for module in (queue_module, jobs_module):
            monkeypatch.setattr(module, "atomic_write_json", write_then_step)
        submit_small(tmp_path, max_points=2, tenant="ci")
        assert steps == [1]
        assert evaluated.value - before[0] == 1
        assert anonymous.value == before[1]

    def test_tenant_counters_on_submit(self, tmp_path):
        from repro.obs import metrics

        reg = metrics.registry()
        submitted = reg.counter("tenant.acme.submitted").value
        submit_small(tmp_path)
        assert reg.counter("tenant.acme.submitted").value == submitted + 3
        # The submitter left its snapshot for `repro obs`.
        obs_files = os.listdir(tmp_path / "obs")
        assert any(name.endswith(".metrics.json") for name in obs_files)


class TestStatusAndCollect:
    def test_lifecycle_timestamps(self, tmp_path):
        record = submit_small(tmp_path)
        assert record.submitted_unix > 0
        status = job_status(str(tmp_path), record.job_id)
        assert status.state == "submitted"
        assert (status.done, status.pending) == (0, 3)

        ServiceWorker(str(tmp_path), idle_exit=0.0).run()
        status = job_status(str(tmp_path), record.job_id)
        assert status.finished
        assert status.state == "done"
        reloaded = load_job(str(tmp_path), record.job_id)
        assert reloaded.started_unix is not None
        assert reloaded.finished_unix is not None

    def test_missing_job_raises(self, tmp_path):
        with pytest.raises(JobError, match="cannot read job record"):
            job_status(str(tmp_path), "no-such-job")

    def test_foreign_schema_is_rejected(self, tmp_path):
        record = submit_small(tmp_path)
        path = job_path(str(tmp_path), record.job_id)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["schema_version"] = JOB_SCHEMA_VERSION + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(JobError, match="schema version"):
            load_job(str(tmp_path), record.job_id)

    def test_collect_refuses_unfinished_job(self, tmp_path):
        record = submit_small(tmp_path)
        with pytest.raises(JobError, match="not finished"):
            collect_job(str(tmp_path), record.job_id)

    def test_collect_matches_in_process_sweep(self, tmp_path):
        from repro.experiments.figures import run_figure

        record = submit_small(tmp_path)
        ServiceWorker(str(tmp_path), idle_exit=0.0).run()
        collected = collect_job(str(tmp_path), record.job_id)
        serial = run_figure(
            "fig4a", preset="quick", seed=3, max_points=3,
            backend="analytical",
        )
        assert collected.series == serial.series
        assert collected.metric == serial.metric
        assert collected.backend == serial.backend
        assert collected.unvalidated_intervals == serial.unvalidated_intervals

    def test_unreadable_stored_result_is_a_miss_everywhere(self, tmp_path):
        from repro.experiments.figures import run_figure

        record = submit_small(tmp_path, max_points=2)
        ServiceWorker(str(tmp_path), idle_exit=0.0).run()
        entry = WorkQueue(str(tmp_path)).results.entry_path(
            record.backend, record.points[0]["key"]
        )
        with open(entry, "w", encoding="utf-8") as handle:
            handle.write("{not json")

        assert not job_status(str(tmp_path), record.job_id).finished
        again = submit_small(tmp_path, max_points=2)
        assert again.served_from_cache == 1
        assert len(os.listdir(tmp_path / "pending")) == 1

        ServiceWorker(str(tmp_path), idle_exit=0.0).run()
        collected = collect_job(str(tmp_path), record.job_id)
        serial = run_figure(
            "fig4a", preset="quick", seed=3, max_points=2,
            backend="analytical",
        )
        assert collected.series == serial.series

    def test_collect_carries_a_manifest(self, tmp_path):
        record = submit_small(tmp_path)
        ServiceWorker(str(tmp_path), idle_exit=0.0).run()
        figure = collect_job(str(tmp_path), record.job_id)
        assert figure.manifest is not None
        assert figure.manifest.execution["executor"] == "service"
        assert figure.manifest.execution["job_id"] == record.job_id
