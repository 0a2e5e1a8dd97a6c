"""Backend-level chaos testing: run a figure under injected faults
and prove the archive still matches a clean run.

The paper models machines that keep doing useful work while their
components fail; this module holds the harness to the same standard.
:func:`run_chaos` regenerates a figure twice through
:func:`~repro.experiments.figures.run_figure`, the path ``run-figure``
takes, on the pool executor — the only executor that can kill an
injected hang — once cleanly, once with a
:class:`~repro.experiments.faultinject.BackendFaultPlan` afflicting
the primary backend under the sweep supervisor's full recovery path
(point timeout, retries, fallback backends). It then judges the two
archives:

1. **bitwise** first: because ``san-sim`` and ``san-sim-full`` are
   trajectory-preserving (identical results per seed) and a fallback
   starts again at attempt 0 on the base seed, a fault plan that
   afflicts only the primary backend on *every* attempt forces
   afflicted points through retries onto the fallback, and their
   values must still match the clean run bit for bit;
2. otherwise by one call to
   :func:`~repro.experiments.archive.compare_figures` without its
   interval-overlap escape: every clean point must be present in the
   faulted archive and within ``tolerance × |clean|`` of it
   (transient faults that survive on a retry use a derived seed, so
   their values legitimately move within noise).

The faulted run's :class:`~repro.obs.RunManifest` carries the
supervisor's event log — every timeout, failure, retry and
degradation — which is how the ``repro chaos`` CLI (and the
``chaos-smoke`` CI job) asserts that recovery actually happened rather
than the faults never firing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from .archive import compare_figures, save_figure
from .faultinject import BackendFaultPlan
from .figures import run_figure
from .resilience import ResilienceOptions, RetryPolicy
from .runner import FigureResult

__all__ = ["ChaosOutcome", "default_chaos_resilience", "run_chaos"]


@dataclass
class ChaosOutcome:
    """What a chaos comparison found.

    Attributes
    ----------
    figure_id / points / backend:
        The (sliced) figure that was regenerated twice.
    bit_identical:
        The faulted archive matches the clean one exactly — the
        strongest possible verdict, expected whenever every afflicted
        point degraded to a trajectory-preserving sibling backend.
    discrepancies:
        Rendered :class:`~repro.experiments.archive.Discrepancy`
        entries: clean points the faulted archive lacks or misses by
        more than the tolerance (empty when within tolerance).
    events_by_kind / degraded:
        Summary of the faulted run's resilience event log (what
        actually fired: timeouts, failures, retries, degradations).
    faults_fired:
        At least one injected fault was observed: an event in that
        log, or a faulted archive that differs from the clean one (a
        corrupted result raises no event). A chaos run whose plan
        never fires proves nothing.
    clean_wall_clock / faulted_wall_clock:
        Wall-clock seconds of the two runs.
    """

    figure_id: str
    points: int
    backend: str
    bit_identical: bool
    discrepancies: List[str] = field(default_factory=list)
    events_by_kind: Dict[str, int] = field(default_factory=dict)
    degraded: List[str] = field(default_factory=list)
    faults_fired: bool = True
    clean_wall_clock: float = 0.0
    faulted_wall_clock: float = 0.0

    @property
    def recovered(self) -> bool:
        """The faulted run produced values matching the clean run:
        the archives are bit-identical, or agree within tolerance."""
        return self.bit_identical or not self.discrepancies

    def summary_lines(self) -> List[str]:
        """A human-readable report of the comparison."""
        lines = [
            f"chaos {self.figure_id}: {self.points} point(s), "
            f"backend {self.backend}",
            f"  clean run:   {self.clean_wall_clock:.1f} s",
            f"  faulted run: {self.faulted_wall_clock:.1f} s",
        ]
        if self.events_by_kind:
            shown = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.events_by_kind.items())
            )
            lines.append(f"  resilience events: {shown}")
        else:
            lines.append("  resilience events: none recorded")
        for stamp in self.degraded:
            lines.append(f"  degraded: {stamp}")
        if not self.faults_fired:
            lines.append(
                "  WARNING: no injected fault fired; raise the fault "
                "fractions or widen the point slice"
            )
        if self.bit_identical:
            lines.append("  archives: bit-identical")
        elif not self.discrepancies:
            lines.append("  archives: within tolerance (not bit-identical)")
        else:
            lines.append(f"  archives: {len(self.discrepancies)} discrepancy(ies)")
            lines.extend(f"    {entry}" for entry in self.discrepancies)
        lines.append(
            "  verdict: RECOVERED" if self.recovered else "  verdict: FAILED"
        )
        return lines


def default_chaos_resilience(
    fault_plan: BackendFaultPlan,
    deadline: Optional[float] = 30.0,
    retries: int = 1,
    degrade_to: Tuple[str, ...] = (),
) -> ResilienceOptions:
    """The sweep options a chaos run's faulted sweep uses.

    ``deadline`` is the pool's point timeout (an injected hang must be
    killable), ``retries`` the supervisor's retries per backend, and
    backoff is kept near zero: a chaos run should spend its wall clock
    simulating, not sleeping.
    """
    return ResilienceOptions(
        retry=RetryPolicy(
            max_retries=retries, backoff_base=0.01, backoff_max=0.05
        ),
        point_timeout=deadline,
        fault_plan=fault_plan,
        degrade_to=tuple(degrade_to),
    )


def run_chaos(
    figure_id: str = "fig4a",
    preset: str = "quick",
    seed: int = 0,
    max_points: Optional[int] = None,
    fault_plan: Optional[BackendFaultPlan] = None,
    options: Optional[ResilienceOptions] = None,
    tolerance: float = 0.15,
    out_dir: Optional[str] = None,
) -> ChaosOutcome:
    """Run one figure clean and faulted; compare the archives.

    Both runs are :func:`~repro.experiments.figures.run_figure` on the
    pool executor with its default two workers: it is the only
    executor that can kill a hung evaluation, and the supervisor logs
    the faulted run's events in the parent process whatever the
    executor. ``run_figure`` looks the figure up, refuses a custom
    (non-sweep) figure, which has no point-level evaluation to
    afflict, and slices the sweep to its first ``max_points`` points
    (the CI smoke runs a handful, not all 30 of fig4a).

    ``fault_plan`` defaults to a crash-every-attempt plan on half the
    evaluations of the figure's own backend, and ``options`` (the
    faulted sweep's options) to :func:`default_chaos_resilience`.
    Options that name no fallback backend fall back to
    ``san-sim-full`` when the figure runs on ``san-sim``.

    A faulted point recovers when it is within ``tolerance × |clean|``
    of the clean one: :func:`compare_figures` with its interval
    overlap escape off.

    When ``out_dir`` is given, both archives (and their manifests) are
    saved under ``<out_dir>/clean`` and ``<out_dir>/faulted``.
    """

    def _run(label: str, resilience: ResilienceOptions) -> FigureResult:
        figure = run_figure(
            figure_id,
            preset=preset,
            seed=seed,
            resilience=resilience,
            executor="pool",
            max_points=max_points,
        )
        if out_dir is not None:
            save_figure(figure, os.path.join(out_dir, label))
        return figure

    clean = _run("clean", ResilienceOptions())
    backend = clean.backend
    if fault_plan is None:
        fault_plan = BackendFaultPlan(
            backend_id=backend, crash_fraction=0.5, crash_attempts=None
        )
    if options is None:
        options = default_chaos_resilience(fault_plan)
    elif options.fault_plan is None:
        options = replace(options, fault_plan=fault_plan)
    if not options.degrade_to and backend == "san-sim":
        options = replace(options, degrade_to=("san-sim-full",))
    faulted = _run("faulted", options)

    bit_identical = clean.series == faulted.series
    discrepancies = [
        str(entry)
        for entry in compare_figures(
            clean, faulted, rel_tolerance=tolerance, use_half_widths=False
        )
    ]
    summary = (faulted.manifest.resilience or {}).get("summary") or {}
    by_kind = dict(summary.get("by_kind") or {})
    fault_kinds = {"retry", "timeout", "failure", "degraded"}
    return ChaosOutcome(
        figure_id=figure_id,
        points=clean.manifest.points_total,
        backend=backend,
        bit_identical=bit_identical,
        discrepancies=discrepancies,
        events_by_kind=by_kind,
        degraded=list(summary.get("degraded") or []),
        faults_fired=not bit_identical
        or any(by_kind.get(kind, 0) > 0 for kind in fault_kinds),
        clean_wall_clock=clean.manifest.wall_clock_seconds,
        faulted_wall_clock=faulted.manifest.wall_clock_seconds,
    )
