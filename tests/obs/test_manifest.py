"""Tests for RunManifest serialization, atomic writes, and rendering."""

import json
from pathlib import Path

import pytest

from repro.obs import (
    MANIFEST_SCHEMA_VERSION,
    ManifestError,
    RunManifest,
    load_manifest,
    manifest_path,
    render_manifest,
    write_manifest,
)


def make_manifest(**overrides):
    fields = dict(
        figure_id="fig3",
        backend="san-sim",
        backend_version="1.0",
        metric="useful_work_fraction",
        seed=42,
        preset="quick",
        plan={"replications": 3, "kernel": "incremental"},
        points_total=10,
        points_from_journal=2,
        points_from_cache=3,
        new_evaluations=5,
        retries=1,
        failed_points=0,
        metrics={"counters": {"sweep.runs": 1}, "gauges": {}, "timings": {}},
        wall_clock_seconds=12.5,
        notes=["example note"],
    )
    fields.update(overrides)
    return RunManifest(**fields)


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        manifest = make_manifest()
        path = Path(write_manifest(manifest, str(tmp_path)))
        assert str(path) == manifest_path(str(tmp_path), "fig3")
        assert path.exists()
        loaded = load_manifest(path)
        assert loaded.figure_id == "fig3"
        assert loaded.backend == "san-sim"
        assert loaded.seed == 42
        assert loaded.points_total == 10
        assert loaded.points_from_cache == 3
        assert loaded.new_evaluations == 5
        assert loaded.retries == 1
        assert loaded.plan == {"replications": 3, "kernel": "incremental"}
        assert loaded.metrics["counters"]["sweep.runs"] == 1
        assert loaded.notes == ["example note"]
        assert loaded.schema_version == MANIFEST_SCHEMA_VERSION

    def test_write_stamps_provenance(self, tmp_path):
        path = Path(write_manifest(make_manifest(), str(tmp_path)))
        payload = json.loads(path.read_text())
        assert payload["created_unix"] > 0
        assert payload["repro_version"]
        # git_version may be "unknown" outside a repo but must be present.
        assert "git_version" in payload

    def test_warm_cache_shape(self, tmp_path):
        """A warm-cache re-run manifest records zero new evaluations."""
        manifest = make_manifest(
            points_from_cache=10, new_evaluations=0, points_from_journal=0
        )
        loaded = load_manifest(write_manifest(manifest, str(tmp_path)))
        assert loaded.new_evaluations == 0
        assert loaded.points_from_cache == loaded.points_total


class TestResilienceSection:
    SECTION = {
        "events": [
            {"kind": "retry", "backend": "san-sim", "attempt": 1},
            {"kind": "degraded", "backend": "san-sim"},
        ],
        "summary": {
            "by_kind": {"retry": 1, "degraded": 1},
            "degraded": ["san-sim -> san-sim-full"],
        },
    }

    def test_round_trips(self, tmp_path):
        manifest = make_manifest(resilience=self.SECTION)
        loaded = load_manifest(write_manifest(manifest, str(tmp_path)))
        assert loaded.resilience == self.SECTION

    def test_absent_in_old_payloads_loads_as_none(self, tmp_path):
        path = Path(write_manifest(make_manifest(), str(tmp_path)))
        payload = json.loads(path.read_text())
        assert payload["resilience"] is None
        del payload["resilience"]  # a pre-PR-6 manifest
        path.write_text(json.dumps(payload))
        assert load_manifest(path).resilience is None

    def test_render_shows_events_and_degradations(self):
        text = render_manifest(make_manifest(resilience=self.SECTION))
        assert "resilience: 2 event(s)" in text
        assert "degraded=1" in text
        assert "retry=1" in text
        assert "degraded: san-sim -> san-sim-full" in text

    def test_render_without_section_is_silent(self):
        assert "resilience" not in render_manifest(make_manifest())


class TestExecutionSection:
    SECTION = {
        "executor": "queue",
        "tasks_executed": 4,
        "coalesced": 2,
        "queue_depth_high_water": 4,
        "orphans_requeued": 1,
        "attempts": {"0": 1, "1": 3},
    }

    def test_round_trips(self, tmp_path):
        manifest = make_manifest(execution=self.SECTION)
        loaded = load_manifest(write_manifest(manifest, str(tmp_path)))
        assert loaded.execution == self.SECTION

    def test_absent_in_old_payloads_loads_as_none(self, tmp_path):
        path = Path(write_manifest(make_manifest(), str(tmp_path)))
        payload = json.loads(path.read_text())
        assert payload["execution"] is None
        del payload["execution"]  # a pre-executor-layer manifest
        path.write_text(json.dumps(payload))
        assert load_manifest(path).execution is None

    def test_render_shows_executor_and_counters(self):
        text = render_manifest(make_manifest(execution=self.SECTION))
        assert "execution: queue executor, 4 task(s) executed" in text
        assert "2 coalesced" in text
        assert "queue depth high-water 4" in text
        assert "1 orphan(s) requeued" in text
        assert "point 1: 3 attempts" in text
        # Single-attempt points are not worth a line.
        assert "point 0" not in text

    def test_render_pool_shape(self):
        text = render_manifest(
            make_manifest(
                execution={
                    "executor": "pool",
                    "tasks_executed": 5,
                    "processes": 4,
                    "timeouts": 2,
                }
            )
        )
        assert "execution: pool executor, 5 task(s) executed" in text
        assert "2 timeout(s)" in text

    def test_render_without_section_is_silent(self):
        assert "execution" not in render_manifest(make_manifest())


class TestSchemaRejection:
    def test_wrong_schema_version(self, tmp_path):
        path = Path(write_manifest(make_manifest(), str(tmp_path)))
        payload = json.loads(path.read_text())
        payload["schema_version"] = MANIFEST_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_missing_figure_id(self, tmp_path):
        path = Path(write_manifest(make_manifest(), str(tmp_path)))
        payload = json.loads(path.read_text())
        del payload["figure_id"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "bad.manifest.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError):
            load_manifest(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError):
            load_manifest(str(tmp_path / "absent.manifest.json"))


class TestRender:
    def test_render_smoke(self):
        text = render_manifest(make_manifest())
        assert "fig3" in text
        assert "san-sim" in text
        assert "useful_work_fraction" in text
        # Point provenance must be visible to a human reader.
        assert "cache" in text


class TestKernelStamping:
    """The event kernel must survive the manifest round trip and be
    visible in the rendered report."""

    def test_plan_stamp_round_trips_kernel(self, tmp_path):
        manifest = make_manifest(
            backend="san-sim-full",
            plan={"replications": 12, "kernel": "full"},
        )
        loaded = load_manifest(write_manifest(manifest, str(tmp_path)))
        assert loaded.plan["kernel"] == "full"

    def test_render_shows_kernel_in_plan_and_stats(self):
        text = render_manifest(
            make_manifest(
                plan={"replications": 12, "kernel": "full"},
                kernel_stats={"kernel": "full", "events": 5000,
                              "events_per_sec": 100000.0},
            )
        )
        assert "kernel=full" in text
        assert "kernel: 5000 events, 100,000 events/s" in text
        assert "deferred" not in text

    def test_deferred_firings_round_trip_and_render(self, tmp_path):
        """A manifest carries the replay's share; one written before
        the counter existed loads and renders without it."""
        stats = {"kernel": "incremental", "events": 5000,
                 "events_per_sec": 100000.0, "deferred_firings": 3800}
        loaded = load_manifest(
            write_manifest(make_manifest(kernel_stats=stats), str(tmp_path))
        )
        assert loaded.kernel_stats["deferred_firings"] == 3800
        assert "kernel: 5000 events, 100,000 events/s, 3800 deferred" in (
            render_manifest(loaded)
        )
