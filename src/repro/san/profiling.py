"""Kernel instrumentation: per-run counters of the simulation executive.

The next-event kernel counts the work it does — heap traffic, enabling
checks performed and skipped, re-samples, stabilisation chains — and
reports it as a :class:`KernelStats` on
:attr:`~repro.san.simulator.SimulationOutput.kernel_stats`. The
counters are how the incremental (dependency-indexed) kernel proves
its keep: ``enabled_checks_skipped`` is exactly the re-scan work the
dependency index avoided on the run's trajectory, and
``events_per_sec`` is the headline throughput gated by
``benchmarks/bench_engine.py``.

The module also provides a tiny process-local aggregator so drivers
that execute many runs (figure sweeps, batch means) can accumulate one
summary: the CLI's ``--kernel-stats`` flag enables it around a sweep
and prints :func:`aggregated` afterwards.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

__all__ = [
    "KernelStats",
    "enable_aggregation",
    "disable_aggregation",
    "record",
    "aggregated",
]


@dataclass
class KernelStats:
    """Counters of one :meth:`Simulator.run` call (or a merged set).

    Attributes
    ----------
    kernel:
        ``"incremental"`` or ``"full"`` (``"mixed"`` after merging
        runs of different kernels).
    runs:
        Number of merged runs (1 for a single run).
    events:
        Activity firings (timed + instantaneous).
    wall_seconds:
        Real time the run(s) took.
    heap_pushes:
        Entries pushed onto the pending-event heap.
    stale_pops:
        Heap entries popped and discarded because their clock had been
        invalidated (generation mismatch) since the push.
    enabled_checks:
        Activity enabling evaluations actually performed.
    enabled_checks_skipped:
        Evaluations the full kernel would have performed on the same
        trajectory that the dependency index proved unnecessary (0 for
        the full kernel), so ``enabled_checks + enabled_checks_skipped``
        equals the full kernel's ``enabled_checks``. Derived after the
        event loop from its firing tallies: the full kernel checks
        every timed activity after each firing, scans every
        instantaneous activity after each timed firing, and scans up
        to index ``i`` before each firing of instantaneous activity
        ``i``. Both kernels start a run through the same rescan, which
        skips nothing.
    resamples:
        Firing-delay distribution samples drawn.
    clock_invalidations:
        Pending clocks discarded (activity disabled, or a
        ``resample_on`` place changed).
    dirty_notifications:
        Place mutations delivered to the kernel's dirty list during
        the event loop: writes by gate functions and callbacks, since
        the incremental kernel accounts for arc mutations statically.
        0 for the full kernel, which does not collect them; the run
        start is not counted.
    stabilisations:
        Stabilisation passes executed: one at the start of each run,
        plus one per timed event for the full kernel, or one per
        cascade that left an instantaneous activity to check for the
        incremental kernel (a replayed firing runs no pass).
    stabilisation_firings:
        Instantaneous firings across all stabilisation passes,
        replayed ones included.
    max_stabilisation_chain:
        Longest single stabilisation chain observed.
    deferred_firings:
        Firings the incremental kernel replayed outside its cascade
        through the model's replay group (see
        :class:`~repro.san.model.ReplayGroup`); they are counted in
        ``events`` too. 0 for the full kernel and for a model without
        a replay group.
    """

    kernel: str = ""
    runs: int = 1
    events: int = 0
    wall_seconds: float = 0.0
    heap_pushes: int = 0
    stale_pops: int = 0
    enabled_checks: int = 0
    enabled_checks_skipped: int = 0
    resamples: int = 0
    clock_invalidations: int = 0
    dirty_notifications: int = 0
    stabilisations: int = 0
    stabilisation_firings: int = 0
    max_stabilisation_chain: int = 0
    deferred_firings: int = 0

    @property
    def events_per_sec(self) -> float:
        """Wall-clock event throughput (0 when no time elapsed)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events / self.wall_seconds

    @property
    def check_efficiency(self) -> float:
        """Fraction of full-rescan enabling checks avoided (0..1)."""
        total = self.enabled_checks + self.enabled_checks_skipped
        if total == 0:
            return 0.0
        return self.enabled_checks_skipped / total

    def merge(self, other: "KernelStats") -> "KernelStats":
        """Fold ``other`` into this instance (in place) and return it."""
        if not self.kernel:
            self.kernel = other.kernel
        elif other.kernel and other.kernel != self.kernel:
            self.kernel = "mixed"
        self.runs += other.runs
        self.events += other.events
        self.wall_seconds += other.wall_seconds
        self.heap_pushes += other.heap_pushes
        self.stale_pops += other.stale_pops
        self.enabled_checks += other.enabled_checks
        self.enabled_checks_skipped += other.enabled_checks_skipped
        self.resamples += other.resamples
        self.clock_invalidations += other.clock_invalidations
        self.dirty_notifications += other.dirty_notifications
        self.stabilisations += other.stabilisations
        self.stabilisation_firings += other.stabilisation_firings
        self.max_stabilisation_chain = max(
            self.max_stabilisation_chain, other.max_stabilisation_chain
        )
        self.deferred_firings += other.deferred_firings
        return self

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-serialisable), derived rates included."""
        data = asdict(self)
        data["events_per_sec"] = self.events_per_sec
        data["check_efficiency"] = self.check_efficiency
        return data

    def summary(self) -> str:
        """Multi-line human-readable report (the CLI's output)."""
        lines = [
            f"kernel: {self.kernel or 'unknown'} ({self.runs} run(s))",
            f"  events: {self.events}  wall: {self.wall_seconds:.3f} s  "
            f"throughput: {self.events_per_sec:,.0f} events/s",
            f"  enabled checks: {self.enabled_checks} performed, "
            f"{self.enabled_checks_skipped} skipped "
            f"({100.0 * self.check_efficiency:.1f}% avoided)",
            f"  heap: {self.heap_pushes} pushes, {self.stale_pops} stale pops",
            f"  clocks: {self.resamples} samples, "
            f"{self.clock_invalidations} invalidations",
            f"  dirty notifications: {self.dirty_notifications}",
            f"  stabilisation: {self.stabilisations} passes, "
            f"{self.stabilisation_firings} instantaneous firings, "
            f"longest chain {self.max_stabilisation_chain}",
            f"  deferred: {self.deferred_firings} firings replayed "
            f"outside the cascade",
        ]
        return "\n".join(lines)


#: Process-local aggregation target (None = aggregation disabled).
_aggregate: List[Optional[KernelStats]] = [None]


def enable_aggregation(reset: bool = True) -> None:
    """Start accumulating every recorded run into one summary."""
    if reset or _aggregate[0] is None:
        _aggregate[0] = KernelStats(runs=0)


def disable_aggregation() -> None:
    """Stop accumulating and drop the current aggregate."""
    _aggregate[0] = None


def record(stats: Optional[KernelStats]) -> None:
    """Fold one run's stats into the aggregate (no-op when disabled)."""
    target = _aggregate[0]
    if target is not None and stats is not None:
        target.merge(stats)


def aggregated() -> Optional[KernelStats]:
    """The current aggregate, or ``None`` when aggregation is off."""
    return _aggregate[0]
