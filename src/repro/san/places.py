"""Places: the state holders of a Stochastic Activity Network.

A :class:`Place` holds a non-negative integer number of tokens, exactly
as in Petri nets. Continuous quantities live outside the marking: the
checkpoint model keeps its useful-work ledger in the simulation's
``ctx`` (:class:`~repro.core.ledger.WorkLedger`).

Every mutation bumps a ``version`` counter. The simulator uses the
counters to (a) re-sample timed activities that declared sensitivity to
a place (marking-dependent rates such as the correlated-failure
multiplier) and (b) skip re-evaluating activities whose inputs did not
change.

Mutations additionally notify an optional ``sink``: the incremental
simulation kernel installs the run's dirty list there, so every place
change enqueues the place for dependency-indexed reconciliation
instead of forcing a full rescan of all activities. The sink is any
object with ``append`` (the kernel uses a plain list on the
:class:`~repro.san.simulator.SimulationState`); places with no sink
pay a single ``is not None`` check per mutation.
"""

from __future__ import annotations

from .errors import ModelDefinitionError, SimulationError

__all__ = ["Place"]


class Place:
    """A discrete token holder.

    Parameters
    ----------
    name:
        Unique name within the model. Submodels share state by using
        the same place name, mirroring the paper's Figure 1 state
        sharing.
    initial:
        Initial marking (default 0 tokens).
    """

    __slots__ = ("name", "tokens", "initial", "version", "sink", "deps")

    def __init__(self, name: str, initial: int = 0) -> None:
        if not name:
            raise ModelDefinitionError("place name must be non-empty")
        if initial < 0:
            raise ModelDefinitionError(f"place {name!r}: initial marking must be >= 0")
        self.name = name
        self.initial = int(initial)
        self.tokens = int(initial)
        self.version = 0
        self.sink = None
        # (timed, instantaneous) dependent-activity indices, filled in
        # by the simulator from the model's dependency index so the
        # dirty-list drain needs no name lookups.
        self.deps = ((), ())

    def add(self, count: int = 1) -> None:
        """Add ``count`` tokens (count may be 0, never negative)."""
        if count < 0:
            raise SimulationError(f"place {self.name!r}: cannot add negative tokens")
        if count:
            self.tokens += count
            self.version += 1
            if self.sink is not None:
                self.sink.append(self)

    def remove(self, count: int = 1) -> None:
        """Remove ``count`` tokens; underflow is a simulation bug."""
        if count < 0:
            raise SimulationError(f"place {self.name!r}: cannot remove negative tokens")
        if count > self.tokens:
            raise SimulationError(
                f"place {self.name!r}: removing {count} from marking {self.tokens}"
            )
        if count:
            self.tokens -= count
            self.version += 1
            if self.sink is not None:
                self.sink.append(self)

    def set(self, count: int) -> None:
        """Set the marking directly (used by gate functions)."""
        if count < 0:
            raise SimulationError(f"place {self.name!r}: marking must be >= 0, got {count}")
        if count != self.tokens:
            self.tokens = int(count)
            self.version += 1
            if self.sink is not None:
                self.sink.append(self)

    def clear(self) -> None:
        """Remove all tokens."""
        self.set(0)

    def reset(self) -> None:
        """Restore the initial marking (between replications)."""
        self.tokens = self.initial
        self.version += 1
        if self.sink is not None:
            self.sink.append(self)

    @property
    def empty(self) -> bool:
        """True when the place holds no tokens."""
        return self.tokens == 0

    def __bool__(self) -> bool:
        return self.tokens > 0

    def __repr__(self) -> str:
        return f"Place({self.name!r}, tokens={self.tokens})"
