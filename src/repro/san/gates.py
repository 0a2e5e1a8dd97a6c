"""Input and output gates.

Gates give SANs their expressive power over plain Petri nets:

* an :class:`InputGate` contributes an arbitrary *predicate* to an
  activity's enabling condition and an arbitrary *function* executed
  when the activity fires (before output arcs/gates);
* an :class:`OutputGate` contributes a function executed on completion
  of a chosen case.

Both receive the live :class:`~repro.san.simulator.SimulationState`, so
they can read/write place markings, the simulation clock and the
user context (the checkpoint model's work ledger).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .errors import ModelDefinitionError

__all__ = ["InputGate", "OutputGate"]

Predicate = Callable[[object], bool]
GateFunction = Callable[[object], None]


def _noop(state: object) -> None:
    """Default gate function: do nothing."""


class InputGate:
    """An enabling predicate plus an optional firing-time function.

    Parameters
    ----------
    name:
        Diagnostic name.
    predicate:
        ``state -> bool``; the owning activity is enabled only while
        every attached input gate's predicate holds.
    function:
        ``state -> None``; executed when the activity fires, after
        input arcs consumed their tokens.
    reads:
        Place names the predicate reads. This is the gate's dependency
        contract with the incremental kernel: when every gate of an
        activity declares its reads, the simulator re-evaluates the
        activity only after one of those places (or an input-arc place)
        changes. A gate that leaves ``reads`` undeclared (``None``)
        keeps the conservative behaviour — its activity is re-checked
        after every firing — so existing models stay correct at the
        cost of the full rescan. Declaring ``reads=[]`` asserts the
        predicate reads no marking at all. A *declared but incomplete*
        list is a modeling bug: the incremental kernel would miss
        enablings the full kernel catches.
    """

    __slots__ = ("name", "predicate", "function", "reads", "declares_reads")

    def __init__(
        self,
        name: str,
        predicate: Predicate,
        function: GateFunction = _noop,
        reads: Optional[Sequence[str]] = None,
    ) -> None:
        if not name:
            raise ModelDefinitionError("input gate name must be non-empty")
        if not callable(predicate):
            raise ModelDefinitionError(f"input gate {name!r}: predicate must be callable")
        if not callable(function):
            raise ModelDefinitionError(f"input gate {name!r}: function must be callable")
        self.name = name
        self.predicate = predicate
        self.function = function
        self.reads = tuple(reads or ())
        self.declares_reads = reads is not None

    def __repr__(self) -> str:
        return f"InputGate({self.name!r})"


class OutputGate:
    """A marking function executed when a case of an activity completes.

    Parameters
    ----------
    name:
        Diagnostic name.
    function:
        ``state -> None`` executed after output arcs added their
        tokens.
    """

    __slots__ = ("name", "function")

    def __init__(self, name: str, function: GateFunction) -> None:
        if not name:
            raise ModelDefinitionError("output gate name must be non-empty")
        if not callable(function):
            raise ModelDefinitionError(f"output gate {name!r}: function must be callable")
        self.name = name
        self.function = function

    def __repr__(self) -> str:
        return f"OutputGate({self.name!r})"
