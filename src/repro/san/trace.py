"""Structured event tracing.

Tracers observe every activity firing. The default :class:`NullTracer`
costs one no-op call per event; :class:`MemoryTracer` keeps events for
test assertions and debugging; :class:`SinkTracer` bridges firings
into the unified observability sink (:mod:`repro.obs.trace`), where
they interleave with cluster protocol events in one exported stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

from ..obs.trace import TraceSink

__all__ = [
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "MemoryTracer",
    "CallbackTracer",
    "SinkTracer",
]


@dataclass(frozen=True)
class TraceEvent:
    """One activity firing: when, what, which case."""

    time: float
    activity: str
    case: int

    def __str__(self) -> str:
        suffix = f" [case {self.case}]" if self.case else ""
        return f"{self.time:.6f}: {self.activity}{suffix}"


class Tracer:
    """Interface: receives every firing via :meth:`record`."""

    def record(self, time: float, activity: str, case: int) -> None:
        """Handle one firing."""
        raise NotImplementedError


class NullTracer(Tracer):
    """Discards everything (the default)."""

    def record(self, time: float, activity: str, case: int) -> None:
        pass


class MemoryTracer(Tracer):
    """Stores every event in order (only suitable for short runs; a
    long one streams through :class:`SinkTracer` instead)."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def record(self, time: float, activity: str, case: int) -> None:
        self.events.append(TraceEvent(time, activity, case))

    def of_activity(self, name: str) -> List[TraceEvent]:
        """All events of one activity."""
        return [event for event in self.events if event.activity == name]

    def times_of(self, name: str) -> List[float]:
        """Firing times of one activity."""
        return [event.time for event in self.events if event.activity == name]

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


class CallbackTracer(Tracer):
    """Forwards each event to a user callback, optionally filtered to a
    set of activity names."""

    def __init__(
        self,
        callback: Callable[[TraceEvent], None],
        activities: Optional[List[str]] = None,
    ) -> None:
        self._callback = callback
        self._filter = set(activities) if activities is not None else None

    def record(self, time: float, activity: str, case: int) -> None:
        if self._filter is None or activity in self._filter:
            self._callback(TraceEvent(time, activity, case))


class SinkTracer(Tracer):
    """Forwards every firing into an observability sink as a
    ``san.firing`` event, unifying the SAN trace with the rest of the
    exported stream (sampling and windowing happen in the sink)."""

    def __init__(self, sink: TraceSink) -> None:
        self.sink = sink

    def record(self, time: float, activity: str, case: int) -> None:
        self.sink.emit(time, "san.firing", activity, case=case)
