"""Unified trace export: one sink interface for every event source.

The SAN executive (:class:`repro.san.simulator.Simulator`) and the
cluster simulator (:class:`repro.cluster.simulator.ClusterSimulator`)
both take the sink they report to as ``sink=``. A *sink* receives
``emit(time, kind, name, **fields)`` calls and decides what to keep:

* :class:`NullSink` — drops everything (the default; one attribute
  check per offered event).
* :class:`MemorySink` — keeps events for test assertions.
* :class:`JsonlTraceSink` — appends one JSON object per kept event to
  a ``.jsonl`` file, with **sampling** (keep every Nth event per kind)
  and **windowing** (stop after a budget of written events) so hot
  paths stay within the engine benchmark gate even with tracing on.

Event kinds in use (see docs/OBSERVABILITY.md): ``san.firing`` (one
activity firing, with its ``case``) and
``cluster.protocol`` (checkpoint-round lifecycle: quiesce, proceed,
abort, failure, recovery). Sinks are process-local, like the metrics
registry: worker processes do not share the supervisor's sink.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "ObsEvent",
    "TraceSink",
    "NullSink",
    "MemorySink",
    "JsonlTraceSink",
    "default_sink",
    "set_default_sink",
]


@dataclass(frozen=True)
class ObsEvent:
    """One exported event: when, what kind, which name, free fields."""

    time: float
    kind: str
    name: str
    fields: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "t": self.time, "kind": self.kind, "name": self.name,
        }
        record.update(self.fields)
        return record


class TraceSink:
    """Interface: receives events via :meth:`emit`; close when done."""

    def emit(self, time: float, kind: str, name: str, **fields: object) -> None:
        """Offer one event to the sink."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (idempotent)."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class NullSink(TraceSink):
    """Discards everything."""

    def emit(self, time: float, kind: str, name: str, **fields: object) -> None:
        pass


class MemorySink(TraceSink):
    """Keeps every offered event in order (tests, debugging)."""

    def __init__(self) -> None:
        self.events: List[ObsEvent] = []

    def emit(self, time: float, kind: str, name: str, **fields: object) -> None:
        self.events.append(ObsEvent(time, kind, name, fields))

    def of_kind(self, kind: str) -> List[ObsEvent]:
        """All events of one kind."""
        return [event for event in self.events if event.kind == kind]

    def __len__(self) -> int:
        return len(self.events)


class JsonlTraceSink(TraceSink):
    """Appends kept events to a JSON-lines file.

    Parameters
    ----------
    path:
        Destination file (created/truncated on open).
    sample_every:
        Keep one event in every ``sample_every`` offered *per kind*
        (1 = keep all). Sampling is deterministic — the first offered
        event of each kind is always kept — so tiny runs still leave a
        readable trace.
    max_events:
        Window: stop writing after this many kept events (``None`` =
        unbounded). Offered events are still counted, so the summary
        reports how much the window dropped.

    The per-kind ``offered``/``written`` counters are exported by
    :meth:`summary` and folded into run manifests;
    :meth:`reset_counts` starts them over, so one file can hold several
    runs' sections, each sampled, windowed and counted on its own.
    """

    def __init__(
        self,
        path: str,
        sample_every: int = 1,
        max_events: Optional[int] = None,
    ) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.path = path
        self.sample_every = sample_every
        self.max_events = max_events
        self.offered: Dict[str, int] = {}
        self.written = 0
        parent = os.path.dirname(os.fspath(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._handle = open(path, "w", encoding="utf-8")

    def emit(self, time: float, kind: str, name: str, **fields: object) -> None:
        seen = self.offered.get(kind, 0)
        self.offered[kind] = seen + 1
        if seen % self.sample_every:
            return
        if self.max_events is not None and self.written >= self.max_events:
            return
        if self._handle is None:
            return
        record: Dict[str, object] = {"t": time, "kind": kind, "name": name}
        record.update(fields)
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self.written += 1

    def reset_counts(self) -> None:
        """Zero the counts: sampling, the window and :meth:`summary`
        then cover only the events offered from here on."""
        self.offered = {}
        self.written = 0

    def summary(self) -> Dict[str, object]:
        """What the sink saw and kept (for manifests and the CLI)."""
        return {
            "path": str(self.path),
            "sample_every": self.sample_every,
            "max_events": self.max_events,
            "offered": dict(sorted(self.offered.items())),
            "written": self.written,
        }

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None


#: The process-default sink. A NullSink unless a driver (the CLI's
#: ``--trace-out``) installs a real one around a run.
_default: TraceSink = NullSink()


def default_sink() -> TraceSink:
    """The process-default trace sink."""
    return _default


def set_default_sink(sink: Optional[TraceSink]) -> TraceSink:
    """Install a new default sink (``None`` restores the NullSink);
    returns the previous sink so drivers can restore it."""
    global _default
    previous = _default
    _default = sink if sink is not None else NullSink()
    return previous
