"""Tests for the unified trace-sink layer (obs.trace)."""

import json

from repro.obs.trace import (
    JsonlTraceSink,
    MemorySink,
    NullSink,
    default_sink,
    set_default_sink,
)


class TestMemorySink:
    def test_captures_events_in_order(self):
        sink = MemorySink()
        sink.emit(1.0, "san.firing", "checkpoint", case=0)
        sink.emit(2.0, "cluster.protocol", "quiesce", epoch=1)
        assert len(sink) == 2
        first = sink.events[0]
        assert first.time == 1.0
        assert first.kind == "san.firing"
        assert first.name == "checkpoint"
        assert first.fields["case"] == 0

    def test_of_kind_filters(self):
        sink = MemorySink()
        sink.emit(1.0, "a", "x")
        sink.emit(2.0, "b", "y")
        sink.emit(3.0, "a", "z")
        assert [e.name for e in sink.of_kind("a")] == ["x", "z"]


class TestJsonlTraceSink:
    def test_writes_valid_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.emit(0.5, "san.firing", "failure", case=2)
            sink.emit(1.5, "san.firing", "repair")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["t"] == 0.5
        assert first["kind"] == "san.firing"
        assert first["name"] == "failure"
        assert first["case"] == 2

    def test_sampling_is_deterministic_per_kind(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path, sample_every=10) as sink:
            for i in range(25):
                sink.emit(float(i), "san.firing", "tick")
            sink.emit(99.0, "cluster.protocol", "quiesce")
        summary = sink.summary()
        assert summary["offered"]["san.firing"] == 25
        assert summary["offered"]["cluster.protocol"] == 1
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        # Every kind keeps its first event; then every 10th.
        san_times = [e["t"] for e in lines if e["kind"] == "san.firing"]
        assert san_times == [0.0, 10.0, 20.0]
        assert [e["t"] for e in lines if e["kind"] == "cluster.protocol"] == [99.0]

    def test_max_events_window(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path, max_events=3) as sink:
            for i in range(10):
                sink.emit(float(i), "k", "n")
        assert len(path.read_text().splitlines()) == 3
        assert sink.summary()["written"] == 3
        assert sink.summary()["offered"]["k"] == 10

    def test_reset_counts_starts_a_new_section(self, tmp_path):
        # One file per command: each figure's section is sampled,
        # windowed and counted as if it were written alone.
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path, sample_every=10, max_events=2) as sink:
            for i in range(25):
                sink.emit(float(i), "k", "n")
            sink.reset_counts()
            for i in range(25):
                sink.emit(100.0 + i, "k", "n")
        assert sink.summary()["offered"] == {"k": 25}
        assert sink.summary()["written"] == 2
        times = [json.loads(line)["t"] for line in path.read_text().splitlines()]
        assert times == [0.0, 10.0, 100.0, 110.0]

    def test_summary_names_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            pass
        assert str(path) == sink.summary()["path"]


class TestDefaultSink:
    def test_default_is_null(self):
        assert isinstance(default_sink(), NullSink)

    def test_set_and_restore(self):
        sink = MemorySink()
        previous = set_default_sink(sink)
        try:
            assert default_sink() is sink
        finally:
            set_default_sink(previous)
        assert default_sink() is previous


class TestSimulatorIntegration:
    def test_san_firings_reach_installed_sink(self):
        from repro.core import HOUR, ModelParameters, SimulationPlan
        from repro.core.simulation import run_single

        sink = MemorySink()
        previous = set_default_sink(sink)
        try:
            plan = SimulationPlan(
                warmup=0.0, observation=5 * HOUR, replications=1
            )
            run_single(ModelParameters(n_processors=1024), plan, seed=1)
        finally:
            set_default_sink(previous)
        firings = sink.of_kind("san.firing")
        assert firings, "expected SAN firings in the sink"
        assert all(e.kind == "san.firing" for e in firings)

    def test_cluster_protocol_events_reach_sink(self):
        from repro.cluster import ClusterSimulator
        from repro.core import HOUR, ModelParameters

        sink = MemorySink()
        sim = ClusterSimulator(ModelParameters(), seed=3, sink=sink)
        sim.run(duration=200.0 * HOUR)
        kinds = {e.kind for e in sink.events}
        assert kinds == {"cluster.protocol"}
        names = {e.name for e in sink.events}
        assert "quiesce" in names
        assert "proceed" in names
