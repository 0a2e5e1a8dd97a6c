"""Next-event simulation executive for SAN models.

The executive implements standard SAN execution semantics:

1. **Stabilisation** — fire enabled instantaneous activities (highest
   priority first) until none is enabled.
2. **Scheduling** — every enabled timed activity holds a sampled clock;
   an activity that becomes disabled discards its clock (Möbius restart
   reactivation); an activity whose ``resample_on`` places changed
   discards and re-samples.
3. **Advance** — pop the earliest clock, advance simulated time,
   integrate rate rewards over the elapsed interval, fire the activity
   (consume input arcs, run input-gate functions, choose a case, apply
   output arcs/gates), add impulse rewards, and go back to 1.

Rate rewards are integrated only after the ``warmup`` transient, which
is how the paper's steady-state simulation discards its initial 1000
hours.

Two kernels implement steps 1 and 2:

* the **full** kernel is three plain methods: :meth:`Simulator._fire`,
  :meth:`Simulator._refresh_schedules` (reconcile every timed
  activity) and :meth:`Simulator._stabilize` (a linear rescan of the
  instantaneous activities after every firing). It is the semantic
  reference, and every :meth:`Simulator.run` call of either kernel
  starts through it, because between calls the marking may have been
  changed out of band.
* the **incremental** kernel (default) builds a static dependency
  index at construction — place → the activities whose enabling or
  clock can depend on it (input arcs, declared input-gate ``reads``,
  ``resample_on``) — and handles each timed event as one cascade in
  :meth:`Simulator.run`: fire, drain the places the firing changed
  (gate-function writes arrive through the places' dirty ``sink``),
  reconcile only the clocks those places affect, select the next
  enabled instantaneous activity among the candidates the index left
  open, and repeat until none is enabled. Activities owning a gate
  that does not declare its reads are re-checked after every firing,
  so models that never declared anything keep full-rescan semantics.

For a model that declares a :class:`~repro.san.model.ReplayGroup`, the
incremental kernel adds a **replay** step between scheduling and
advance: while the group's quiet predicate holds (evaluated after every
cascade), nothing outside the group can observe a member's firing, so
a popped member fires through the group's handler instead of the
cascade, and the clocks it starts wait in a small side heap. Both heaps
hold the same entries and share one sequence counter, and the advance
step pops the earlier of their two tops: the order one heap would pop
them in. Integration, the zero-delay valve, tallies, the trace and the
per-event checks are the advance step's, whichever way a firing goes.
The full kernel ignores the declaration.

Both kernels are trajectory-preserving: for the same seed they produce
bit-identical firing sequences, because the dependency index only ever
skips re-evaluations whose outcome could not have changed, candidates
are visited in the same deterministic order, and each activity samples
from its own named stream. ``tests/integration/test_kernel_equivalence``
asserts this A/B on the full checkpoint model, and
``tests/integration/test_random_san_equivalence`` on generated models.

Per-run kernel counters (heap traffic, checks performed vs skipped,
re-samples, stabilisation chains, events/sec) are reported on
:attr:`SimulationOutput.kernel_stats` — see :mod:`repro.san.profiling`.
"""

from __future__ import annotations

import heapq
import time as _time
from collections import Counter
from operator import attrgetter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NoReturn, Optional, Sequence, Tuple

from .activities import Activity, TimedActivity
from .errors import (
    InvariantViolationError,
    LivelockError,
    ModelDefinitionError,
    SimulationError,
    WallClockExceededError,
)
from ..obs import metrics as _obs_metrics
from ..obs.trace import NullSink, TraceSink
from .model import SANModel
from .places import ExtendedPlace, Place
from .profiling import KernelStats
from .rewards import RateFunction, RewardResult, RewardVariable
from .rng import StreamRegistry

__all__ = [
    "SimulationState",
    "SimulationOutput",
    "Simulator",
    "Invariant",
    "non_negative_markings",
    "monotone_nondecreasing",
    "KERNELS",
]

#: An invariant hook: inspects the state after every event and returns
#: ``None`` when satisfied, or a human-readable description of the
#: violation (the executive raises :class:`InvariantViolationError`).
Invariant = Callable[["SimulationState"], Optional[str]]

#: Safety valve against livelocks of instantaneous activities.
MAX_INSTANTANEOUS_CHAIN = 100_000
#: Safety valve against livelocks of zero-delay timed activities.
MAX_EVENTS_PER_INSTANT = 1_000_000

#: The selectable scheduling kernels.
KERNELS = ("incremental", "full")

#: C-level attribute reader for place version counters (hot path).
_VERSION = attrgetter("version")


class SimulationState:
    """The live state handed to gates, distributions and rewards.

    Exposes the simulation clock (:attr:`time`), the user context
    (:attr:`ctx` — the checkpoint model stores its work ledger there)
    and marking access by place name. :attr:`dirty_places` is the
    incremental kernel's event-local dirty list: every place mutation
    appends the place here (via the place's ``sink``), and the kernel
    drains it into its reconciliation sets between firings.
    """

    __slots__ = ("model", "time", "ctx", "_places", "_extended", "dirty_places")

    def __init__(self, model: SANModel, ctx: Any = None) -> None:
        self.model = model
        self.time = 0.0
        self.ctx = ctx
        self._places: Dict[str, Place] = {p.name: p for p in model.places}
        self._extended: Dict[str, ExtendedPlace] = {
            p.name: p for p in model.extended_places
        }
        self.dirty_places: List[Any] = []

    def place(self, name: str) -> Place:
        """The named place object (for reading or gate-side mutation)."""
        return self._places[name]

    def tokens(self, name: str) -> int:
        """Current marking of the named place."""
        return self._places[name].tokens

    def value(self, name: str) -> float:
        """Current value of the named extended place."""
        return self._extended[name].value

    def marking_snapshot(self) -> Dict[str, Any]:
        """The full marking as a plain dict (for diagnostics/dumps)."""
        snapshot: Dict[str, Any] = {
            name: place.tokens for name, place in self._places.items()
        }
        snapshot.update(
            {name: place.value for name, place in self._extended.items()}
        )
        return snapshot

    def __repr__(self) -> str:
        return f"SimulationState(t={self.time:.6g})"


def non_negative_markings(state: "SimulationState") -> Optional[str]:
    """Built-in invariant: every discrete place holds >= 0 tokens.

    Arc semantics already forbid underflow, but gate functions mutate
    places directly and can corrupt the marking; this hook catches
    that class of modeling bug at the event where it happens.
    """
    for name, place in state._places.items():
        if place.tokens < 0:
            return f"place {name!r} holds {place.tokens} tokens"
    return None


def monotone_nondecreasing(
    getter: Callable[["SimulationState"], float], label: str
) -> Invariant:
    """Build an invariant asserting ``getter(state)`` never decreases.

    Used for cumulative quantities (e.g. the work ledger's integrated
    useful work between reward intervals) that must be monotone: a
    decrease means double-counted rollback or a sign error.
    """
    last: List[Optional[float]] = [None]

    def invariant(state: "SimulationState") -> Optional[str]:
        value = getter(state)
        previous = last[0]
        last[0] = value
        if previous is not None and value < previous:
            return (
                f"{label} decreased from {previous:.6g} to {value:.6g}"
            )
        return None

    invariant.__name__ = f"monotone_nondecreasing({label})"
    return invariant


@dataclass
class SimulationOutput:
    """Everything one simulation run produced.

    Attributes
    ----------
    final_time:
        Simulated time at which the run stopped.
    warmup:
        The transient period that was discarded.
    rewards:
        Per-variable :class:`RewardResult` (post-warm-up accumulation).
    event_count:
        Total number of activity firings (timed + instantaneous).
    firings:
        Firing count per activity name (diagnostics and tests).
    kernel_stats:
        :class:`~repro.san.profiling.KernelStats` of this run: heap
        traffic, enabling checks performed vs skipped, re-samples,
        stabilisation chain lengths, and wall-clock events/sec.
    """

    final_time: float
    warmup: float
    rewards: Dict[str, RewardResult] = field(default_factory=dict)
    event_count: int = 0
    firings: Dict[str, int] = field(default_factory=dict)
    kernel_stats: Optional[KernelStats] = None

    @property
    def observation_time(self) -> float:
        """Length of the measured (post-warm-up) window."""
        return max(0.0, self.final_time - self.warmup)

    def time_average(self, reward_name: str) -> float:
        """Convenience accessor for a reward's time average."""
        return self.rewards[reward_name].time_average


class _Schedule:
    """Clock bookkeeping for one timed activity."""

    __slots__ = ("fire_time", "generation", "watched_versions")

    def __init__(self) -> None:
        self.fire_time: Optional[float] = None
        self.generation = 0
        self.watched_versions: Tuple[int, ...] = ()


class Simulator:
    """Discrete-event simulator for a :class:`SANModel`.

    Parameters
    ----------
    model:
        The model to execute. It is mutated in place; call
        ``model.reset()`` (or build a fresh model) between runs.
    ctx:
        Arbitrary user context reachable as ``state.ctx`` from gates,
        distributions, rewards and callbacks.
    streams:
        A :class:`StreamRegistry` or an integer seed. Every timed
        activity draws from its own named stream, so reconfiguring one
        activity never perturbs another's sample path.
    sink:
        Optional :class:`~repro.obs.trace.TraceSink` receiving every
        firing as ``emit(time, "san.firing", activity, case=case)``.
        The default is no tracing. The attribute may be reassigned
        between :meth:`run` calls; a :class:`~repro.obs.trace.NullSink`
        keeps the event loop from making any call per firing.
    max_instantaneous_chain:
        Safety valve: maximum instantaneous firings per stabilisation
        before the executive declares a livelock. Defaults to the
        module constant; tests lower it to keep livelock tests fast.
    max_events_per_instant:
        Safety valve: maximum timed firings at one simulated instant.
    kernel:
        ``"incremental"`` (default) handles each timed event as one
        cascade that reconciles only the activities the dependency
        index marks as affected by the event's place mutations;
        ``"full"`` runs the plain :meth:`_fire`, :meth:`_refresh_schedules`
        and :meth:`_stabilize` methods, which re-scan every activity
        after every firing (the semantic reference — same
        trajectories, more work). Both kernels start each
        :meth:`run` call through those three methods. Only one
        simulator at a time can drive a given model instance:
        constructing a second re-targets the places' dirty sinks.
    """

    def __init__(
        self,
        model: SANModel,
        ctx: Any = None,
        streams: Any = 0,
        sink: Optional[TraceSink] = None,
        max_instantaneous_chain: int = MAX_INSTANTANEOUS_CHAIN,
        max_events_per_instant: int = MAX_EVENTS_PER_INSTANT,
        kernel: str = "incremental",
    ) -> None:
        if isinstance(streams, StreamRegistry):
            self._streams = streams
        else:
            self._streams = StreamRegistry(seed=int(streams))
        if kernel not in KERNELS:
            raise SimulationError(
                f"kernel must be one of {KERNELS}, got {kernel!r}"
            )
        self.model = model
        self.kernel = kernel
        self.state = SimulationState(model, ctx=ctx)
        # A context exposing `integrate(state, start, end)` receives every
        # inter-event interval before the clock advances; the checkpoint
        # model's work ledger integrates execution time this way.
        self._ctx_integrate = getattr(ctx, "integrate", None)
        # `is not None`, not truthiness: an empty MemorySink is falsy.
        self.sink = sink if sink is not None else NullSink()
        if max_instantaneous_chain < 1:
            raise SimulationError(
                f"max_instantaneous_chain must be >= 1, got {max_instantaneous_chain}"
            )
        if max_events_per_instant < 1:
            raise SimulationError(
                f"max_events_per_instant must be >= 1, got {max_events_per_instant}"
            )
        self._max_instantaneous_chain = max_instantaneous_chain
        self._max_events_per_instant = max_events_per_instant

        self._timed: Tuple[TimedActivity, ...] = model.timed_activities
        self._instantaneous = model.instantaneous_activities
        self._n_timed = len(self._timed)
        self._n_inst = len(self._instantaneous)
        # Preallocated per-activity records, indexed by position in the
        # definition-order tuples: no name-keyed dict lookups in the
        # hot loop.
        self._schedules: List[_Schedule] = [_Schedule() for _ in self._timed]
        self._rngs = [
            self._streams.get(f"activity/{a.name}") for a in self._timed
        ]
        self._case_rng = self._streams.get("cases")
        self._watched: List[Tuple[Place, ...]] = [
            tuple(
                model.place(name)
                for name in activity.resample_on
                if model.has_place(name)
            )
            for activity in self._timed
        ]
        # Heap entries are (fire_time, seq, generation, timed_index);
        # seq is unique so comparisons never reach the index.
        self._heap: List[Tuple[float, int, int, int]] = []
        self._sequence = 0
        self._firings: Counter = Counter()

        # Enabling plans: ((place, weight), ...) arc pairs plus gate
        # predicates, pre-extracted so the hot path tests enabling
        # without attribute chains or a method call per activity.
        self._t_enabled = [self._enabling_plan(a) for a in self._timed]
        self._i_enabled = [self._enabling_plan(a) for a in self._instantaneous]
        # Bound sample methods, one per timed activity: distributions
        # are fixed at activity construction, so the binding is safe.
        self._samplers = [a.distribution.sample for a in self._timed]

        self._build_dependency_index()
        self._install_sinks()
        self._build_fire_plans()
        self._build_replay()
        self._reset_counters()

    @staticmethod
    def _enabling_plan(activity: Activity) -> Tuple[tuple, tuple]:
        """((place, weight), ...) and (predicate, ...) for fast checks."""
        return (
            tuple((arc.place, arc.weight) for arc in activity.input_arcs),
            tuple(gate.predicate for gate in activity.input_gates),
        )

    # ------------------------------------------------------------------
    # Dependency index
    # ------------------------------------------------------------------
    def _build_dependency_index(self) -> None:
        """Map each place name to the indices of dependent activities.

        ``_dep_timed[name]`` / ``_dep_inst[name]`` list the timed /
        instantaneous activities whose enabling or clock can depend on
        the place; ``_always_timed`` / ``_always_inst`` hold the
        activities whose footprint is unknowable (a gate without
        declared ``reads``) and are therefore reconciled after every
        event — the conservative fallback that keeps undeclared models
        on full-rescan semantics.
        """
        dep_timed: Dict[str, List[int]] = {}
        dep_inst: Dict[str, List[int]] = {}
        always_timed: List[int] = []
        always_inst: List[int] = []
        for index, activity in enumerate(self._timed):
            deps = activity.dependency_places()
            if deps is None:
                always_timed.append(index)
                continue
            for name in deps:
                dep_timed.setdefault(name, []).append(index)
        for index, activity in enumerate(self._instantaneous):
            deps = activity.dependency_places()
            if deps is None:
                always_inst.append(index)
                continue
            for name in deps:
                dep_inst.setdefault(name, []).append(index)
        self._dep_timed = {
            name: tuple(indices) for name, indices in dep_timed.items()
        }
        self._dep_inst = {
            name: tuple(indices) for name, indices in dep_inst.items()
        }
        self._always_timed = tuple(always_timed)
        self._always_inst = tuple(always_inst)
        # Denormalise onto the places themselves: the drain then reads
        # `place.deps` instead of two dict lookups per dirty place.
        for place in list(self.model.places) + list(self.model.extended_places):
            place.deps = (
                self._dep_timed.get(place.name, ()),
                self._dep_inst.get(place.name, ()),
            )

    def _build_fire_plans(self) -> None:
        """Pre-extracted firing recipes, one per activity.

        A plan is ``(in_pairs, in_fns, case_plans, resolve, on_fire,
        name, slot)``: everything a firing needs without walking
        ``Arc``/``Case``/``Gate`` attribute chains. ``resolve`` is the
        activity's ``resolve_case`` for a multi-case activity and
        ``None`` otherwise (a single case never touches the case
        stream, so skipping the call is RNG-neutral). ``slot`` indexes
        the run's firing tallies and impulse tables: timed activities
        first, then instantaneous ones.

        Arc mutations are statically known, so each case plan also
        carries the pre-merged union of dependent-activity indices its
        arcs can affect (``affected_timed`` / ``affected_inst``). The
        incremental kernel adds those to its reconciliation sets
        directly and bypasses the place sinks for arc mutations; only
        gate *function* writes still flow through the dirty list. For
        a timed activity the affected set also contains the activity
        itself: firing consumed its clock, so it must re-sample if
        still enabled. An instantaneous activity has no clock and
        stays in the candidate set until a check proves it disabled,
        so its own index never needs forcing in.

        Requires ``place.deps`` (``_build_dependency_index``) to be
        populated first.
        """

        def build(activity: Activity, self_index: Optional[int], slot: int) -> tuple:
            in_pairs = tuple((arc.place, arc.weight) for arc in activity.input_arcs)
            case_plans = []
            for case in activity.cases:
                out_pairs = tuple((arc.place, arc.weight) for arc in case.output_arcs)
                affected_timed = set() if self_index is None else {self_index}
                affected_inst = set()
                for place, _ in in_pairs + out_pairs:
                    timed_deps, inst_deps = place.deps
                    affected_timed.update(timed_deps)
                    affected_inst.update(inst_deps)
                case_plans.append(
                    (
                        out_pairs,
                        tuple(gate.function for gate in case.output_gates),
                        tuple(affected_timed),
                        tuple(affected_inst),
                    )
                )
            return (
                in_pairs,
                tuple(gate.function for gate in activity.input_gates),
                tuple(case_plans),
                activity.resolve_case if len(activity.cases) > 1 else None,
                activity.on_fire,
                activity.name,
                slot,
            )

        n_timed = self._n_timed
        self._t_plans = [
            build(activity, index, index)
            for index, activity in enumerate(self._timed)
        ]
        self._i_plans = [
            build(activity, None, n_timed + index)
            for index, activity in enumerate(self._instantaneous)
        ]

    def _build_replay(self) -> None:
        """Resolve the model's :class:`~repro.san.model.ReplayGroup`.

        The incremental kernel alone replays (the full kernel stays
        the plain reference). A declaration that breaks one of the
        replay's static preconditions is refused here, naming the
        activity or place.
        """
        # Replayed firings push their clocks here, in the main heap's
        # entry format and from its sequence counter, so popping the
        # earlier top of the two heaps is the order one heap would pop
        # them in. The side heap stays small, which is the point.
        self._side: List[Tuple[float, int, int, int]] = []
        self._replay: Optional[tuple] = None
        self._replay_writes: frozenset = frozenset()
        group = self.model.replay_group
        if group is None or self.kernel != "incremental":
            return

        def refuse(detail: str) -> NoReturn:
            raise ModelDefinitionError(f"replay group {group.name!r}: {detail}")

        model = self.model
        t_index = {a.name: i for i, a in enumerate(self._timed)}
        i_index = {a.name: i for i, a in enumerate(self._instantaneous)}
        for place_name in group.writes + group.quiet.reads:
            if not model.has_place(place_name):
                refuse(f"names unknown place {place_name!r}")
        if not group.quiet.declares_reads:
            refuse(f"quiet predicate {group.quiet.name!r} must declare its reads")
        writes = set(group.writes)
        for place_name in group.quiet.reads:
            if place_name in writes:
                refuse(
                    f"quiet predicate reads {place_name!r}, which a member "
                    f"writes: a replayed firing could end the quiet"
                )
        replay_local = [-1] * self._n_timed
        member_timed: List[int] = []
        member_slot: List[int] = []
        for local, name in enumerate(group.members):
            if name in t_index:
                activity = self._timed[t_index[name]]
                replay_local[t_index[name]] = local
                member_timed.append(t_index[name])
                member_slot.append(t_index[name])
                if activity.resample_on:
                    refuse(
                        f"member {name!r} declares resample_on: a replayed "
                        f"clock is never re-sampled"
                    )
            elif name in i_index:
                activity = self._instantaneous[i_index[name]]
                member_timed.append(-1)
                member_slot.append(self._n_timed + i_index[name])
            else:
                refuse(f"names unknown activity {name!r}")
            for gate in activity.input_gates:
                if not gate.declares_reads:
                    refuse(
                        f"member {name!r}'s gate {gate.name!r} does not "
                        f"declare its reads"
                    )
            if len(activity.cases) > 1:
                refuse(
                    f"member {name!r} has {len(activity.cases)} cases: a "
                    f"replayed firing draws no case"
                )
            for place_name in activity.places_touched():
                if place_name not in writes:
                    refuse(
                        f"member {name!r} writes {place_name!r} through an "
                        f"arc, which the group's writes omit"
                    )
        members = set(group.members)
        for activity in self._timed:
            if activity.name in members:
                continue
            for place_name in activity.resample_on:
                if place_name in writes:
                    refuse(
                        f"activity {activity.name!r} outside the group "
                        f"watches {place_name!r} (resample_on), which a "
                        f"member writes"
                    )
        self._replay = (
            group.quiet.predicate,
            group.fire,
            replay_local,
            tuple(member_timed),
            tuple(member_slot),
            group.members,
        )
        self._replay_writes = frozenset(writes)

    def _install_sinks(self) -> None:
        """Point every place's dirty sink at this run's dirty list.

        The full kernel re-scans everything anyway, so it leaves the
        sinks disconnected and pays nothing per mutation.
        """
        sink = self.state.dirty_places if self.kernel == "incremental" else None
        for place in self.model.places:
            place.sink = sink
        for extended in self.model.extended_places:
            extended.sink = sink

    def _reset_counters(self) -> None:
        self._n_pushes = 0
        self._n_checks = 0
        self._n_resamples = 0
        self._n_invalidations = 0
        self._n_stabilize = 0
        self._n_stabilize_fired = 0
        self._max_chain = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self,
        until: float,
        warmup: float = 0.0,
        rewards: Sequence[RewardVariable] = (),
        stop_when: Optional[Any] = None,
        wall_clock_budget: Optional[float] = None,
        invariants: Sequence[Invariant] = (),
    ) -> SimulationOutput:
        """Execute the model from time 0 to ``until``.

        ``warmup`` is the transient period excluded from reward
        accumulation. Reward *state* (the marking) naturally carries
        across the boundary.

        ``stop_when`` enables *terminating* simulations: a callable
        ``state -> bool`` evaluated after every event; when it returns
        True the run ends at the current time (used for job-completion
        studies). ``until`` then acts as a hard cap. The predicate is
        evaluated exactly once per event, so stateful or expensive
        predicates are safe.

        ``wall_clock_budget`` bounds the *real* time (seconds) the run
        may consume; exceeding it raises
        :class:`~repro.san.errors.WallClockExceededError` with a state
        dump, so a runaway configuration fails fast and diagnosably
        instead of hanging a sweep worker forever.

        ``invariants`` are hooks ``state -> Optional[str]`` evaluated
        after every stabilised event; a non-``None`` return raises
        :class:`~repro.san.errors.InvariantViolationError` naming the
        hook and the violation.

        Calling :meth:`run` again **continues** the same trajectory
        from where the previous call stopped (pending clocks are
        preserved); each call accumulates its own reward window — the
        basis of single-run batch-means estimation.
        """
        state = self.state
        run_start = state.time
        # Written so that NaN fails every check: a NaN bound would
        # never stop the loop, and a NaN warm-up would silently
        # zero every rate reward.
        if wall_clock_budget is not None and not wall_clock_budget > 0:
            raise SimulationError(
                f"wall_clock_budget must be > 0, got {wall_clock_budget}"
            )
        if not until > run_start:
            raise SimulationError(
                f"until ({until}) must exceed the current time ({run_start})"
            )
        if not 0 <= warmup < until:
            raise SimulationError(
                f"warmup must satisfy 0 <= warmup < until, got {warmup} vs {until}"
            )
        accumulators = {rv.name: 0.0 for rv in rewards}
        # Rate plan: rewards declaring `reads=` go into `static`;
        # `static_places` is the deduplicated union of every declared
        # place. Place versions are monotone, so an unchanged combined
        # version sum proves no declared place mutated and the cached
        # `(name, rate)` list of nonzero rates (`rate_cache[1]`) is
        # still exact — one integer loop replaces every rate call on
        # the no-change path. Per-reward accumulation order is the
        # same either way (each name appears at most once per
        # interval), so the float sums are bit-identical to
        # recomputing every time. Undeclared rates land in `dynamic`
        # and are re-evaluated every interval.
        static: List[Tuple[str, RateFunction]] = []
        dynamic: List[Tuple[str, RateFunction]] = []
        static_places: List[Any] = []
        seen_places: set = set()
        for rv in rewards:
            if rv.rate is None:
                continue
            if rv.reads is None:
                dynamic.append((rv.name, rv.rate))
                continue
            for place_name in rv.reads:
                # Explicit None checks: Place.__bool__ reflects the
                # marking, so `or`-chaining would drop empty places.
                place = state._places.get(place_name)
                if place is None:
                    place = state._extended.get(place_name)
                if place is None:
                    raise SimulationError(
                        f"reward variable {rv.name!r} declares unknown "
                        f"place {place_name!r} in reads"
                    )
                if place_name not in seen_places:
                    seen_places.add(place_name)
                    static_places.append(place)
            static.append((rv.name, rv.rate))
        rate_cache: List[Any] = [-1, ()]
        # After a version-sum check, only a cascade can change a
        # declared place when the replay group writes none of them, so
        # the check is skipped until the next cascade.
        rates_checked = False
        keep_rates = self._replay is not None and not seen_places & self._replay_writes
        ctx_integrate = self._ctx_integrate
        integrands = bool(static or dynamic) or ctx_integrate is not None
        # Impulse rewards by plan slot, in reward order: one list index
        # replaces a name-keyed lookup per firing.
        timed = self._timed
        activities = timed + self._instantaneous  # in plan-slot order
        impulses: List[tuple] = [
            tuple(
                (rv.name, rv.impulses[a.name])
                for rv in rewards
                if a.name in rv.impulses
            )
            for a in activities
        ]

        self._reset_counters()
        # Resolved once per call, so a NullSink costs the event loop
        # one `is not None` test per firing and no call.
        sink = self.sink
        self._emit = None if isinstance(sink, NullSink) else sink.emit
        wall_begin = _time.monotonic()

        # Every run call starts with the full kernel's rescan: between
        # calls the marking may have been mutated out of band
        # (model.reset(), gate probes), and the cost is one rescan per
        # call, not one per event. Afterwards no instantaneous
        # activity is enabled and every clock is reconciled, so the
        # incremental kernel starts from empty reconciliation sets.
        event_count = self._stabilize(impulses, accumulators, warmup)
        self._refresh_schedules()
        self._check_invariants(invariants)
        dirty = state.dirty_places
        del dirty[:]

        # The event loop runs a few hundred thousand times per second;
        # every attribute and bound-method lookup below is hoisted into
        # a local on purpose. `dirty` aliases the live list — the drain
        # empties it with `del dirty[:]`, never rebinding.
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        schedules = self._schedules
        incremental = self.kernel == "incremental"
        t_plans = self._t_plans
        i_plans = self._i_plans
        case_rng = self._case_rng
        emit = self._emit
        always_timed = self._always_timed
        always_inst = self._always_inst
        t_enabling = self._t_enabled
        i_enabling = self._i_enabled
        watched_lists = self._watched
        samplers = self._samplers
        rngs = self._rngs
        n_timed = self._n_timed
        max_per_instant = self._max_events_per_instant
        max_chain_limit = self._max_instantaneous_chain
        events_at_instant = 0
        last_instant = -1.0
        # Reconciliation sets of the incremental kernel: the timed
        # activities whose clocks need reconciling and the
        # instantaneous activities not yet proved disabled.
        pending: set = set()
        inst_candidates: set = set()
        # Kernel counters accumulate in locals and merge into the
        # instance totals (which the run start's methods fed) after
        # the loop; firing tallies are by plan slot.
        n_checks = 0
        n_dirty = 0
        n_invalidations = 0
        n_pushes = 0
        n_stale = 0
        n_stabilize = 0
        max_chain = 0
        counts = [0] * (n_timed + self._n_inst)
        # The replay (incremental kernel, a model with a replay group):
        # `quiet` is the group's predicate after the latest cascade.
        # Only a cascade can change it, because no member writes a
        # place it reads. Which heap an entry comes from does not
        # matter: while an observer is armed, a member fires through
        # the cascade like any other activity.
        side = self._side
        n_deferred = 0
        quiet = False
        if self._replay is not None:
            (quiet_fn, replay_fire, replay_local, member_timed,
             member_slot, member_names) = self._replay
            quiet = quiet_fn(state)
        else:
            quiet_fn = None
        while True:
            # ---- Advance: pop the earliest live clock of the main and
            # side heaps (their entries share one sequence counter, so
            # this is the order one heap would pop them in), or close
            # the run at `until` when none is due by then.
            if heap or side:
                if side and (not heap or side[0] < heap[0]):
                    fire_time, _, generation, index = heappop(side)
                else:
                    fire_time, _, generation, index = heappop(heap)
                schedule = schedules[index]
                if generation != schedule.generation or schedule.fire_time is None:
                    n_stale += 1
                    continue
                closing = fire_time > until
                if closing:
                    # Push back so a continuing run() call reuses it.
                    self._sequence += 1
                    heappush(heap, (fire_time, self._sequence, generation, index))
                    self._n_pushes += 1
                    fire_time = until
            else:
                fire_time = until
                closing = True
            # Integrate rate rewards over (state.time, fire_time).
            if integrands:
                prev_time = state.time
                if fire_time > prev_time:
                    if ctx_integrate is not None:
                        ctx_integrate(state, prev_time, fire_time)
                    measured_start = prev_time if prev_time > warmup else warmup
                    if fire_time > measured_start:
                        dt = fire_time - measured_start
                        if static:
                            if not rates_checked:
                                version_sum = sum(map(_VERSION, static_places))
                                if version_sum != rate_cache[0]:
                                    rate_cache[0] = version_sum
                                    nonzero = []
                                    for nm, rate_fn in static:
                                        rate = rate_fn(state)
                                        if rate:
                                            nonzero.append((nm, rate))
                                    rate_cache[1] = nonzero
                                rates_checked = keep_rates
                            for nm, rate in rate_cache[1]:
                                accumulators[nm] += rate * dt
                        for nm, rate_fn in dynamic:
                            rate = rate_fn(state)
                            if rate:
                                accumulators[nm] += rate * dt
            if closing:
                state.time = until
                break
            if fire_time == last_instant:
                events_at_instant += 1
                if events_at_instant > max_per_instant:
                    raise LivelockError(
                        "zero-delay",
                        timed[index].name,
                        events_at_instant,
                        time=fire_time,
                        marking=state.marking_snapshot(),
                    )
            else:
                last_instant = fire_time
                events_at_instant = 0
            state.time = fire_time
            schedule.fire_time = None
            schedule.generation += 1
            if quiet and replay_local[index] >= 0:
                # ---- Replay: nothing outside the group can observe
                # this firing, so the group's own handler applies it
                # and names the member clocks it starts (and the
                # instantaneous member the cascade would select next);
                # the clocks go to the side heap.
                member = replay_local[index]
                s_fired = 0
                while True:
                    follow = replay_fire[member](state)
                    slot = member_slot[member]
                    counts[slot] += 1
                    n_deferred += 1
                    imp = impulses[slot]
                    if imp and fire_time >= warmup:
                        for acc_name, impulse_fn in imp:
                            accumulators[acc_name] += impulse_fn(state, 0)
                    if emit is not None:
                        emit(fire_time, "san.firing", member_names[member], case=0)
                    fired = member
                    member = -1
                    for member_next in follow:
                        t_index = member_timed[member_next]
                        if t_index < 0:
                            member = member_next
                            continue
                        schedule = schedules[t_index]
                        if schedule.fire_time is not None:
                            continue
                        delay = samplers[t_index](rngs[t_index], state)
                        if not delay >= 0:
                            raise SimulationError(
                                f"activity {timed[t_index].name!r} "
                                f"sampled invalid delay {delay}"
                            )
                        schedule.fire_time = t_fire = fire_time + delay
                        self._sequence += 1
                        n_pushes += 1
                        heappush(
                            side,
                            (t_fire, self._sequence, schedule.generation, t_index),
                        )
                    if s_fired > max_chain_limit:
                        raise LivelockError(
                            "instantaneous",
                            member_names[fired],
                            s_fired,
                            time=fire_time,
                            marking=state.marking_snapshot(),
                        )
                    if member < 0:
                        break
                    s_fired += 1
                if s_fired > max_chain:
                    max_chain = s_fired
            elif not incremental:
                self._fire(t_plans[index], impulses, accumulators, warmup)
                self._refresh_schedules()
                event_count += 1 + self._stabilize(impulses, accumulators, warmup)
            else:
                # ---- The cascade: fire, drain, reconcile, select the
                # next instantaneous activity, repeat until none is
                # enabled. Reconciling before selecting observes the
                # marking after every firing, so an activity disabled
                # transiently inside a chain loses its clock (restart
                # semantics), exactly as in the full kernel.
                plan = t_plans[index]
                s_fired = 0
                while True:
                    # Fire, in _fire's mutation order: input arcs, input
                    # gate functions, case, output arcs, output gate
                    # functions, on_fire.
                    in_pairs, in_fns, case_plans, resolve, on_fire, name, slot = plan
                    for place, weight in in_pairs:
                        place.tokens -= weight
                        place.version += 1
                    for fn in in_fns:
                        fn(state)
                    case_index = 0 if resolve is None else resolve(state, case_rng)
                    out_pairs, out_fns, affected_t, affected_i = case_plans[case_index]
                    for place, weight in out_pairs:
                        place.tokens += weight
                        place.version += 1
                    for fn in out_fns:
                        fn(state)
                    if on_fire is not None:
                        on_fire(state, case_index)
                    counts[slot] += 1
                    imp = impulses[slot]
                    if imp and fire_time >= warmup:
                        for acc_name, impulse_fn in imp:
                            accumulators[acc_name] += impulse_fn(state, case_index)
                    if emit is not None:
                        emit(fire_time, "san.firing", name, case=case_index)
                    pending.update(affected_t)
                    inst_candidates.update(affected_i)
                    # Drain the gate functions' writes through the index.
                    if dirty:
                        n_dirty += len(dirty)
                        for place in dirty:
                            timed_deps, inst_deps = place.deps
                            if timed_deps:
                                pending.update(timed_deps)
                            if inst_deps:
                                inst_candidates.update(inst_deps)
                        del dirty[:]
                    if always_timed:
                        pending.update(always_timed)
                    # Reconcile the affected clocks in definition order,
                    # the order _refresh_schedules walks them in, so
                    # both kernels draw and push identically.
                    if pending:
                        # One- and two-element sets dominate (a firing
                        # typically dirties itself plus one neighbour);
                        # sorted() on those is pure overhead.
                        n_pending = len(pending)
                        if n_pending == 1:
                            candidates = (pending.pop(),)
                        elif n_pending == 2:
                            ca = pending.pop()
                            cb = pending.pop()
                            candidates = (ca, cb) if ca < cb else (cb, ca)
                        else:
                            candidates = sorted(pending)
                            pending.clear()
                        n_checks += n_pending
                        for t_index in candidates:
                            schedule = schedules[t_index]
                            arc_pairs, predicates = t_enabling[t_index]
                            for place, weight in arc_pairs:
                                if place.tokens < weight:
                                    enabled = False
                                    break
                            else:
                                for predicate in predicates:
                                    if not predicate(state):
                                        enabled = False
                                        break
                                else:
                                    enabled = True
                            if not enabled:
                                if schedule.fire_time is not None:
                                    schedule.fire_time = None
                                    schedule.generation += 1
                                    n_invalidations += 1
                                continue
                            watched = watched_lists[t_index]
                            if schedule.fire_time is not None:
                                if not watched:
                                    continue
                                versions = tuple(place.version for place in watched)
                                if versions == schedule.watched_versions:
                                    continue
                                schedule.fire_time = None
                                schedule.generation += 1
                                n_invalidations += 1
                            delay = samplers[t_index](rngs[t_index], state)
                            if not delay >= 0:
                                raise SimulationError(
                                    f"activity {timed[t_index].name!r} "
                                    f"sampled invalid delay {delay}"
                                )
                            schedule.fire_time = t_fire = fire_time + delay
                            if watched:
                                schedule.watched_versions = tuple(
                                    place.version for place in watched
                                )
                            self._sequence += 1
                            n_pushes += 1
                            heappush(
                                heap,
                                (t_fire, self._sequence, schedule.generation, t_index),
                            )
                    if s_fired > max_chain_limit:
                        raise LivelockError(
                            "instantaneous",
                            name,
                            s_fired,
                            time=state.time,
                            marking=state.marking_snapshot(),
                        )
                    # Select the lowest-index enabled candidate: every
                    # activity outside the set is provably disabled, so
                    # it is the one _stabilize's linear scan would fire.
                    # After an instantaneous firing the set still holds
                    # that activity, so it is empty only straight after
                    # the timed firing, when no stabilisation is needed.
                    if always_inst:
                        inst_candidates.update(always_inst)
                    if not inst_candidates:
                        break
                    n_cand = len(inst_candidates)
                    if n_cand == 1:
                        ordered = tuple(inst_candidates)
                    elif n_cand == 2:
                        ca, cb = inst_candidates
                        ordered = (ca, cb) if ca < cb else (cb, ca)
                    else:
                        ordered = sorted(inst_candidates)
                    for i_index in ordered:
                        n_checks += 1
                        arc_pairs, predicates = i_enabling[i_index]
                        for place, weight in arc_pairs:
                            if place.tokens < weight:
                                enabled = False
                                break
                        else:
                            for predicate in predicates:
                                if not predicate(state):
                                    enabled = False
                                    break
                            else:
                                enabled = True
                        if enabled:
                            break
                        inst_candidates.discard(i_index)
                    else:
                        n_stabilize += 1
                        if s_fired > max_chain:
                            max_chain = s_fired
                        break
                    plan = i_plans[i_index]
                    s_fired += 1
                if quiet_fn is not None:
                    quiet = quiet_fn(state)
                    rates_checked = False
            if invariants:
                self._check_invariants(invariants)
            if wall_clock_budget is not None:
                elapsed = _time.monotonic() - wall_begin
                if elapsed > wall_clock_budget:
                    raise WallClockExceededError(
                        wall_clock_budget,
                        elapsed,
                        time=state.time,
                        marking=state.marking_snapshot(),
                    )
            if stop_when is not None and stop_when(state):
                break

        # Merge the loop's tallies into the instance totals.
        firings = self._firings
        for activity, count in zip(activities, counts):
            if count:
                firings[activity.name] += count
        event_count += sum(counts)
        skipped = 0
        if incremental:
            # The full kernel would have made, on the same trajectory,
            # n_timed checks after every firing, one linear scan of the
            # n_inst instantaneous activities after every timed firing,
            # and a scan up to index i before every firing of
            # instantaneous activity i.
            t_fired = sum(counts[:n_timed])
            i_counts = counts[n_timed:]
            full_checks = (
                n_timed * (t_fired + sum(i_counts))
                + self._n_inst * t_fired
                + sum((i + 1) * count for i, count in enumerate(i_counts))
            )
            skipped = full_checks - n_checks
            self._n_stabilize_fired += sum(i_counts)
        self._n_checks += n_checks
        self._n_invalidations += n_invalidations
        self._n_pushes += n_pushes
        self._n_resamples += n_pushes
        self._n_stabilize += n_stabilize
        if max_chain > self._max_chain:
            self._max_chain = max_chain

        final_time = state.time
        window_start = max(run_start, warmup)
        results = {
            rv.name: RewardResult(
                name=rv.name,
                accumulated=accumulators[rv.name],
                observation_time=max(0.0, final_time - window_start),
            )
            for rv in rewards
        }
        wall_seconds = _time.monotonic() - wall_begin
        stats = KernelStats(
            kernel=self.kernel,
            events=event_count,
            wall_seconds=wall_seconds,
            heap_pushes=self._n_pushes,
            stale_pops=n_stale,
            enabled_checks=self._n_checks,
            enabled_checks_skipped=skipped,
            resamples=self._n_resamples,
            clock_invalidations=self._n_invalidations,
            dirty_notifications=n_dirty,
            stabilisations=self._n_stabilize,
            stabilisation_firings=self._n_stabilize_fired,
            max_stabilisation_chain=self._max_chain,
            deferred_firings=n_deferred,
        )
        # Metrics are recorded once per run (never per event): three
        # dictionary lookups here, nothing inside the hot loop above.
        _reg = _obs_metrics.registry()
        _reg.counter("san.runs").inc()
        _reg.counter("san.events").inc(event_count)
        _reg.timing("san.run_seconds").observe(wall_seconds)
        return SimulationOutput(
            final_time=final_time,
            warmup=warmup,
            rewards=results,
            event_count=event_count,
            firings=dict(firings),
            kernel_stats=stats,
        )

    # ------------------------------------------------------------------
    # The full kernel: plain methods, the reference the cascade in
    # run() is checked against, and the start of every run() call.
    # ------------------------------------------------------------------
    def _fire(
        self,
        plan: tuple,
        impulses: List[tuple],
        accumulators: Dict[str, float],
        warmup: float,
    ) -> None:
        """Fire one activity from its plan, through the places' checked
        ``remove``/``add``."""
        state = self.state
        in_pairs, in_fns, case_plans, resolve, on_fire, name, slot = plan
        for place, weight in in_pairs:
            place.remove(weight)
        for fn in in_fns:
            fn(state)
        case_index = 0 if resolve is None else resolve(state, self._case_rng)
        out_pairs, out_fns, _, _ = case_plans[case_index]
        for place, weight in out_pairs:
            place.add(weight)
        for fn in out_fns:
            fn(state)
        if on_fire is not None:
            on_fire(state, case_index)
        self._firings[name] += 1
        if impulses[slot] and state.time >= warmup:
            for acc_name, impulse_fn in impulses[slot]:
                accumulators[acc_name] += impulse_fn(state, case_index)
        if self._emit is not None:
            self._emit(state.time, "san.firing", name, case=case_index)

    def _stabilize(
        self,
        impulses: List[tuple],
        accumulators: Dict[str, float],
        warmup: float,
    ) -> int:
        """Fire instantaneous activities until none is enabled.

        A linear scan in priority order fires the first enabled
        activity, reconciles every clock, and starts over; a scan that
        finds nothing enabled ends the stabilisation.
        """
        state = self.state
        plans = self._i_plans
        fired = 0
        while True:
            for index, activity in enumerate(self._instantaneous):
                self._n_checks += 1
                if activity.enabled(state):
                    self._fire(plans[index], impulses, accumulators, warmup)
                    self._refresh_schedules()
                    fired += 1
                    if fired > self._max_instantaneous_chain:
                        raise LivelockError(
                            "instantaneous",
                            activity.name,
                            fired,
                            time=state.time,
                            marking=state.marking_snapshot(),
                        )
                    break
            else:
                break
        self._n_stabilize += 1
        self._n_stabilize_fired += fired
        if fired > self._max_chain:
            self._max_chain = fired
        return fired

    def _refresh_schedules(self) -> None:
        """Reconcile every timed activity's clock with the marking.

        In definition order: a disabled activity discards its clock, an
        enabled one whose ``resample_on`` places changed re-samples,
        and an enabled one without a clock samples one.
        """
        state = self.state
        now = state.time
        schedules = self._schedules
        watched_lists = self._watched
        enabling = self._t_enabled
        samplers = self._samplers
        rngs = self._rngs
        heap = self._heap
        sequence = self._sequence
        pushes = 0
        self._n_checks += self._n_timed
        for index in range(self._n_timed):
            schedule = schedules[index]
            arc_pairs, predicates = enabling[index]
            for place, weight in arc_pairs:
                if place.tokens < weight:
                    enabled = False
                    break
            else:
                for predicate in predicates:
                    if not predicate(state):
                        enabled = False
                        break
                else:
                    enabled = True
            if not enabled:
                if schedule.fire_time is not None:
                    schedule.fire_time = None
                    schedule.generation += 1
                    self._n_invalidations += 1
                continue
            watched = watched_lists[index]
            if schedule.fire_time is not None:
                if not watched:
                    continue
                versions = tuple(place.version for place in watched)
                if versions == schedule.watched_versions:
                    continue
                schedule.fire_time = None
                schedule.generation += 1
                self._n_invalidations += 1
            delay = samplers[index](rngs[index], state)
            if not delay >= 0:
                raise SimulationError(
                    f"activity {self._timed[index].name!r} "
                    f"sampled invalid delay {delay}"
                )
            schedule.fire_time = fire_time = now + delay
            if watched:
                schedule.watched_versions = tuple(
                    place.version for place in watched
                )
            sequence += 1
            pushes += 1
            heapq.heappush(heap, (fire_time, sequence, schedule.generation, index))
        self._sequence = sequence
        self._n_resamples += pushes
        self._n_pushes += pushes

    def _check_invariants(self, invariants: Sequence[Invariant]) -> None:
        if not invariants:
            return
        state = self.state
        for invariant in invariants:
            detail = invariant(state)
            if detail is not None:
                raise InvariantViolationError(
                    getattr(invariant, "__name__", repr(invariant)),
                    detail,
                    time=state.time,
                    marking=state.marking_snapshot(),
                )
