"""The SAN model container and shared-state composition.

A :class:`SANModel` owns places and activities. State
sharing — the composition mechanism the paper uses to wire its twelve
submodels together (Figure 1) — falls out naturally: a *submodel* is
just a builder function that adds its pieces to the shared model, and
two submodels share state by asking for the same place name via
:meth:`SANModel.place`.

The model also provides structural validation (:meth:`validate`), a
marking snapshot/restore used by replications and by the state-space
generator, and a tiny linting pass that reports places no activity ever
touches.

A model may also declare one :class:`ReplayGroup`: a deterministic
sub-cycle of its activities that the incremental kernel can fire
outside its event cascade while nothing else observes the cycle.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .activities import Activity, InstantaneousActivity, TimedActivity
from .errors import ModelDefinitionError
from .gates import InputGate
from .places import Place

__all__ = ["SANModel", "ReplayGroup"]


class ReplayGroup:
    """Activities the incremental kernel may fire outside its cascade.

    While ``quiet`` holds, no activity outside the group can be enabled
    by a change to a place the members write, so firing a member needs
    no reconciliation beyond the members themselves. The kernel then
    pops the members' clocks in the usual ``(time, sequence)`` order and
    hands each firing to the member's handler in ``fire`` instead of the
    cascade; it keeps the clocks, the integration, the tallies, the
    trace and the per-event checks itself. The full kernel ignores the
    group.

    Parameters
    ----------
    name:
        Diagnostic name.
    members:
        Names of the member activities (timed or instantaneous).
    quiet:
        An :class:`InputGate` whose predicate is true while no observer
        of the members' places can be enabled. It must declare its
        ``reads``, and a member may not write any of them.
    writes:
        Every place a member's firing changes, gate writes included.
    fire:
        One handler per member, ``state -> follow``: ``fire[k]``
        applies ``members[k]``'s marking change (tokens and version
        bumps, bypassing the dirty sink) and returns the indices of the
        members the firing enables: the timed ones whose clocks the
        cascade would reconcile, in definition order, then at most one
        instantaneous member, the one the cascade would select next.
        The kernel starts each named clock that is not already running
        and fires the instantaneous member through its handler.
    """

    __slots__ = ("name", "members", "quiet", "writes", "fire")

    def __init__(
        self,
        name: str,
        members: Sequence[str],
        quiet: InputGate,
        writes: Sequence[str],
        fire: Sequence[Callable[[object], Tuple[int, ...]]],
    ) -> None:
        if not name:
            raise ModelDefinitionError("replay group name must be non-empty")
        if not members:
            raise ModelDefinitionError(f"replay group {name!r}: needs members")
        if len(fire) != len(members) or not all(callable(fn) for fn in fire):
            raise ModelDefinitionError(
                f"replay group {name!r}: needs one callable handler per member"
            )
        self.name = name
        self.members: Tuple[str, ...] = tuple(members)
        self.quiet = quiet
        self.writes: Tuple[str, ...] = tuple(writes)
        self.fire = tuple(fire)

    def __repr__(self) -> str:
        return f"ReplayGroup({self.name!r}, members={list(self.members)})"


class SANModel:
    """A composed Stochastic Activity Network.

    Examples
    --------
    >>> from repro.san import SANModel, TimedActivity, Arc, Exponential
    >>> model = SANModel("mm1")
    >>> queue = model.add_place("queue", initial=0)
    >>> arrive = model.add_activity(TimedActivity(
    ...     "arrive", Exponential(1.0),
    ...     cases=[__import__("repro.san.activities", fromlist=["Case"]).Case(
    ...         output_arcs=[Arc(queue)])]))
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ModelDefinitionError("model name must be non-empty")
        self.name = name
        self._places: Dict[str, Place] = {}
        self._activities: Dict[str, Activity] = {}
        self._activity_order: List[Activity] = []
        self._submodels: Dict[str, List[str]] = {}
        #: The model's :class:`ReplayGroup`, or ``None``. The
        #: incremental kernel checks it when a simulator is built.
        self.replay_group: Optional[ReplayGroup] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_place(self, name: str, initial: int = 0) -> Place:
        """Create a place, or return the existing one with this name.

        Re-using a name is how submodels share state. Asking for an
        existing place with a *different* non-zero initial marking is a
        composition bug and raises.
        """
        existing = self._places.get(name)
        if existing is not None:
            if initial not in (0, existing.initial):
                raise ModelDefinitionError(
                    f"place {name!r}: conflicting initial markings "
                    f"{existing.initial} vs {initial}"
                )
            return existing
        place = Place(name, initial)
        self._places[name] = place
        return place

    def add_activity(self, activity: Activity, submodel: Optional[str] = None) -> Activity:
        """Register an activity; names must be unique model-wide."""
        if activity.name in self._activities:
            raise ModelDefinitionError(f"duplicate activity name {activity.name!r}")
        self._activities[activity.name] = activity
        self._activity_order.append(activity)
        if submodel:
            self._submodels.setdefault(submodel, []).append(activity.name)
        return activity

    def compose(self, builder: Callable[["SANModel"], None]) -> "SANModel":
        """Apply a submodel builder function and return ``self``.

        Lets callers chain: ``SANModel("m").compose(a).compose(b)``.
        """
        builder(self)
        return self

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def place(self, name: str) -> Place:
        """Return the place called ``name`` (KeyError style on miss)."""
        try:
            return self._places[name]
        except KeyError:
            raise ModelDefinitionError(f"unknown place {name!r}") from None

    def activity(self, name: str) -> Activity:
        """Return the activity called ``name``."""
        try:
            return self._activities[name]
        except KeyError:
            raise ModelDefinitionError(f"unknown activity {name!r}") from None

    def has_place(self, name: str) -> bool:
        """True when a discrete place with this name exists."""
        return name in self._places

    @property
    def places(self) -> Tuple[Place, ...]:
        """All discrete places, in creation order."""
        return tuple(self._places.values())

    @property
    def activities(self) -> Tuple[Activity, ...]:
        """All activities, in definition order."""
        return tuple(self._activity_order)

    @property
    def timed_activities(self) -> Tuple[TimedActivity, ...]:
        """All timed activities, in definition order."""
        return tuple(a for a in self._activity_order if a.timed)  # type: ignore[misc]

    @property
    def instantaneous_activities(self) -> Tuple[InstantaneousActivity, ...]:
        """Instantaneous activities sorted by (-priority, definition order)."""
        ordered = [a for a in self._activity_order if not a.timed]
        ordered.sort(key=lambda a: -a.priority)  # stable sort keeps definition order
        return tuple(ordered)  # type: ignore[return-value]

    def submodel_activities(self, submodel: str) -> Tuple[str, ...]:
        """Activity names registered under a submodel label."""
        return tuple(self._submodels.get(submodel, ()))

    @property
    def submodels(self) -> Tuple[str, ...]:
        """Names of the submodels that registered activities."""
        return tuple(self._submodels)

    # ------------------------------------------------------------------
    # Validation and snapshots
    # ------------------------------------------------------------------
    def validate(self) -> List[str]:
        """Check structural consistency; return lint warnings.

        Raises :class:`ModelDefinitionError` on hard errors (arc to a
        place not owned by the model, unknown resample target). Soft
        issues (a place no activity touches) come back as warnings.
        """
        warnings: List[str] = []
        owned = set(self._places.values())
        touched: set = set()
        for activity in self._activity_order:
            for arc in activity.input_arcs:
                if arc.place not in owned:
                    raise ModelDefinitionError(
                        f"activity {activity.name!r}: input arc to foreign "
                        f"place {arc.place.name!r}"
                    )
                touched.add(arc.place.name)
            for case in activity.cases:
                for arc in case.output_arcs:
                    if arc.place not in owned:
                        raise ModelDefinitionError(
                            f"activity {activity.name!r}: output arc to foreign "
                            f"place {arc.place.name!r}"
                        )
                    touched.add(arc.place.name)
            if activity.timed:
                for name in activity.resample_on:  # type: ignore[attr-defined]
                    if name not in self._places:
                        raise ModelDefinitionError(
                            f"activity {activity.name!r}: resample_on unknown "
                            f"place {name!r}"
                        )
                    touched.add(name)
            for gate in activity.input_gates:
                for name in gate.reads:
                    if name not in self._places:
                        raise ModelDefinitionError(
                            f"gate {gate.name!r}: declares read of unknown "
                            f"place {name!r}"
                        )
                    touched.add(name)
        for name in self._places:
            if name not in touched:
                warnings.append(f"place {name!r} is never referenced by an activity")
        if not self._activities:
            warnings.append("model has no activities")
        return warnings

    def marking(self) -> Dict[str, int]:
        """Snapshot of the discrete marking as ``{place: tokens}``."""
        return {name: place.tokens for name, place in self._places.items()}

    def marking_vector(self) -> Tuple[int, ...]:
        """Hashable marking tuple in place-creation order (used by the
        state-space generator)."""
        return tuple(place.tokens for place in self._places.values())

    def set_marking_vector(self, vector: Iterable[int]) -> None:
        """Restore a marking captured by :meth:`marking_vector`."""
        values = tuple(vector)
        places = tuple(self._places.values())
        if len(values) != len(places):
            raise ModelDefinitionError(
                f"marking vector length {len(values)} != place count {len(places)}"
            )
        for place, value in zip(places, values):
            place.set(int(value))

    def reset(self) -> None:
        """Restore every place to its initial marking."""
        for place in self._places.values():
            place.reset()

    def __repr__(self) -> str:
        return (
            f"SANModel({self.name!r}, places={len(self._places)}, "
            f"activities={len(self._activities)})"
        )
