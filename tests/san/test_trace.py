"""Tests for tracing."""

from repro.san import CallbackTracer, MemoryTracer, NullTracer, TraceEvent


class TestMemoryTracer:
    def test_records_in_order(self):
        tracer = MemoryTracer()
        tracer.record(1.0, "a", 0)
        tracer.record(2.0, "b", 1)
        assert [event.activity for event in tracer] == ["a", "b"]
        assert len(tracer) == 2

    def test_of_activity_and_times(self):
        tracer = MemoryTracer()
        tracer.record(1.0, "a", 0)
        tracer.record(2.0, "b", 0)
        tracer.record(3.0, "a", 0)
        assert tracer.times_of("a") == [1.0, 3.0]
        assert len(tracer.of_activity("b")) == 1


class TestCallbackTracer:
    def test_forwards_all(self):
        seen = []
        tracer = CallbackTracer(seen.append)
        tracer.record(1.0, "a", 0)
        assert seen == [TraceEvent(1.0, "a", 0)]

    def test_filters(self):
        seen = []
        tracer = CallbackTracer(seen.append, activities=["keep"])
        tracer.record(1.0, "drop", 0)
        tracer.record(2.0, "keep", 0)
        assert [event.activity for event in seen] == ["keep"]


class TestNullTracer:
    def test_discards(self):
        NullTracer().record(1.0, "x", 0)  # must simply not raise


class TestTraceEvent:
    def test_str(self):
        assert str(TraceEvent(1.5, "fire", 0)) == "1.500000: fire"
        assert "case 2" in str(TraceEvent(1.5, "fire", 2))
