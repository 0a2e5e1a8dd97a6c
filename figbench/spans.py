"""In-memory span recorder and the wrappers that feed it.

A span is one call of an instrumented function: its name, start and
end on ``time.perf_counter``, the span that was open when it started
(its parent, per thread), and the operation it belongs to. Spans are
kept in a list and written out once, when the run ends.

The wrappers are installed from outside the program: :func:`instrument`
replaces each public function under the name its callers look up (a
module attribute, or a method on its class) and puts the original back
on exit, so nothing under ``src/`` changes. ``os.fsync`` is replaced by
a counting wrapper that still calls the real one, and each call is
charged to the innermost open span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "SpanRecorder", "TARGETS", "instrument", "layer_of"]


class Span:
    """One recorded call (``end`` is set when the call returns)."""

    __slots__ = ("name", "start", "end", "parent", "op", "fsyncs")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 op: Optional[str]) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.op = op
        self.fsyncs = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_of(name: str) -> str:
    """The layer a span name belongs to: the text before its first dot."""
    return name.split(".", 1)[0]


class SpanRecorder:
    """Collects spans in memory; one stack of open spans per thread.

    ``scope`` is the operation id the benchmark is running now (a
    figure at a seed, or one warm re-run). A span takes its operation
    from the wrapper when the call's arguments name a sweep point,
    otherwise from its parent, otherwise from ``scope``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.scope: Optional[str] = None
        self.unattributed_fsyncs = 0
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, op: Optional[str] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None:
            op = self.spans[parent].op if parent is not None else self.scope
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), parent, op))
        stack.append(index)
        return index

    def close(self, index: int, op: Optional[str] = None) -> None:
        """End span ``index``; ``op`` re-assigns it, and the descendants
        that inherited its operation, to an operation known only now."""
        span = self.spans[index]
        span.end = self.clock()
        if op is not None and op != span.op:
            inherited = span.op
            span.op = op
            for later in self.spans[index + 1:]:
                if later.op == inherited and self._descends_from(later, index):
                    later.op = op
        self._stack().remove(index)

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[int]:
        index = self.open(name, op)
        try:
            yield index
        finally:
            self.close(index)

    def count_fsync(self) -> None:
        """Charge one fsync to the innermost open span of this thread."""
        stack = self._stack()
        if stack:
            self.spans[stack[-1]].fsyncs += 1
        else:
            self.unattributed_fsyncs += 1

    def point_op(self, index: Any) -> Optional[str]:
        """Operation id of sweep point ``index`` in the current scope."""
        if self.scope is None or index is None:
            return None
        return f"{self.scope}#{index}"

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, name: str,
             op_of: Optional[Callable[..., Any]] = None) -> Callable:
        """``fn`` recording one span per call.

        ``op_of(*args, **kwargs)`` returns the sweep-point index the
        call works on, or ``None`` to inherit the operation.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.point_op(op_of(*args, **kwargs)) if op_of else None
            index = self.open(name, op)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def wrap_generator(self, fn: Callable, name: str,
                       op_of_item: Optional[Callable[[Any], Any]] = None
                       ) -> Callable:
        """``fn`` (a generator function) recording one span per item.

        Each span covers the work done between two yields; it takes
        its operation from the item it produced.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    index = self.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        self.close(index)
                        return
                    except BaseException:
                        self.close(index)
                        raise
                    op = self.point_op(op_of_item(item)) if op_of_item else None
                    self.close(index, op)
                    yield item
            finally:
                inner.close()

        return wrapper

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Each span's duration minus the time its child spans cover."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        result = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            cursor = span.start
            for start, end in sorted(children.get(index, ())):
                start = max(start, cursor)
                if end > start:
                    covered += end - start
                    cursor = end
            result.append(max(0.0, span.duration - covered))
        return result

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s``, ``self_s``, ``fsyncs``."""
        selfs = self.self_times()
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "fsyncs": 0}
        )
        for span, self_s in zip(self.spans, selfs):
            row = table[span.name]
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += self_s
            row["fsyncs"] += span.fsyncs
        return dict(table)

    def _descends_from(self, span: Span, index: int) -> bool:
        parent = span.parent
        while parent is not None and parent > index:
            parent = self.spans[parent].parent
        return parent == index

    def op_durations(self, point_ops: bool) -> Dict[str, float]:
        """Time per operation: the summed duration of each operation's
        outermost spans (spans whose parent is in another operation).

        ``point_ops`` selects sweep-point operations (ids with ``#``);
        otherwise the benchmark's scope operations are returned.
        """
        result: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.op is None or ("#" in span.op) != point_ops:
                continue
            if span.parent is not None and self.spans[span.parent].op == span.op:
                continue
            result[span.op] += span.duration
        return dict(result)

    def op_fsyncs(self) -> Dict[str, int]:
        """fsync calls charged to each operation's spans."""
        result: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            if span.fsyncs and span.op is not None:
                result[span.op] += span.fsyncs
        return dict(result)

    def ops_with(self, name: str) -> set:
        """Operations that contain at least one span called ``name``."""
        return {span.op for span in self.spans if span.name == name}

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON line (parents by list index)."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent, "op": span.op,
                    "fsyncs": span.fsyncs,
                }) + "\n")


def _index_arg(position: int, keyword: str) -> Callable[..., Any]:
    """``op_of`` reading a sweep-point index from an argument."""

    def op_of(*args, **kwargs):
        value = kwargs.get(keyword, args[position] if len(args) > position else None)
        return getattr(value, "index", value)

    return op_of


#: Every wrapped function: (module, attribute path, span name, how the
#: call names its sweep point). Attribute paths are the names callers
#: look up at call time, so replacing them reaches every call.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable[..., Any]]], ...] = (
    ("repro.san.simulator", "Simulator.__init__", "san.init", None),
    ("repro.san.simulator", "Simulator.run", "san.run", None),
    ("repro.backends.san_sim", "simulate", "core.simulate", None),
    ("repro.core.simulation", "build_system", "core.build_system", None),
    ("repro.backends.san_sim", "SanSimulationBackend.evaluate",
     "backends.evaluate", None),
    ("repro.backends.analytical", "AnalyticalBackend.evaluate",
     "backends.evaluate", None),
    ("repro.backends.cache", "ResultCache.get", "backends.cache_get", None),
    ("repro.backends.cache", "ResultCache.put", "backends.cache_put", None),
    ("repro.backends.cache", "request_digest", "backends.request_digest", None),
    ("repro.exec.task", "request_digest", "backends.request_digest", None),
    ("repro.exec.task", "execute_task", "exec.execute_task",
     _index_arg(0, "task")),
    ("repro.exec.task", "EvaluationTask.to_json_dict", "exec.task_encode", None),
    ("repro.exec.task", "EvaluationTask.from_json_dict", "exec.task_decode",
     None),
    ("repro.exec.task", "EvaluationTask.cache_key", "exec.cache_key", None),
    ("repro.exec.queue", "QueueExecutor.submit", "exec.queue_submit",
     _index_arg(1, "task")),
    ("repro.exec.queue", "QueueExecutor.drain", "exec.queue_drain", None),
    ("repro.experiments.figures", "run_figure", "experiments.run_figure", None),
    ("repro.experiments.figures", "run_sweep", "experiments.run_sweep", None),
    ("repro.experiments.resilience", "CheckpointJournal.record_point",
     "experiments.journal_record", _index_arg(1, "index")),
    ("repro.experiments.archive", "save_figure", "experiments.save_figure",
     None),
    ("repro.obs.metrics", "MetricsRegistry.snapshot", "obs.snapshot", None),
)

#: Generator functions get one span per yielded item (see
#: :meth:`SpanRecorder.wrap_generator`).
_GENERATORS = {"QueueExecutor.drain"}


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install every wrapper in :data:`TARGETS` (and the fsync counter)
    for the duration of the ``with`` block, then restore the originals.
    """
    restore: List[Tuple[Any, str, Any]] = []
    real_fsync = os.fsync

    def fsync(fd):
        recorder.count_fsync()
        return real_fsync(fd)

    try:
        for module_name, path, name, op_of in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *owners, attribute = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            # Taken raw from the owner's namespace, so a classmethod
            # stays a classmethod.
            raw = vars(owner)[attribute]
            if isinstance(raw, classmethod):
                replacement: Any = classmethod(recorder.wrap(raw.__func__, name, op_of))
            elif path in _GENERATORS:
                replacement = recorder.wrap_generator(
                    raw, name, lambda item: getattr(item, "index", None)
                )
            else:
                replacement = recorder.wrap(raw, name, op_of)
            setattr(owner, attribute, replacement)
            restore.append((owner, attribute, raw))
        os.fsync = fsync
        restore.append((os, "fsync", real_fsync))
        yield recorder
    finally:
        for owner, attribute, raw in reversed(restore):
            setattr(owner, attribute, raw)
