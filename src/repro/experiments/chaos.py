"""Backend-level chaos testing: run a figure under injected faults
and prove the archive still matches a clean run.

The paper models machines that keep doing useful work while their
components fail; this module holds the harness to the same standard.
:func:`run_chaos` regenerates a (sliced, scaled-down) figure twice on
the pool executor — the only executor that can kill an injected hang
— once cleanly, once with a
:class:`~repro.experiments.faultinject.BackendFaultPlan` afflicting
the primary backend under the sweep supervisor's full recovery path
(point timeout, retries, fallback backends) — and compares the two
archives:

1. **bitwise** first: because ``san-sim`` and ``san-sim-full`` are
   trajectory-preserving (identical results per seed) and a fallback
   starts again at attempt 0 on the base seed, a fault plan that
   afflicts only the primary backend on *every* attempt forces
   afflicted points through retries onto the fallback, and their
   values must still match the clean run bit for bit;
2. :func:`~repro.experiments.archive.compare_figures` within
   tolerance otherwise (transient faults that survive on a retry use
   a derived seed, so their values legitimately move within noise);
3. a :class:`~repro.validate.stats.TolerancePolicy` band cross-check
   on every point, the same agreement bands the differential
   validation suite uses between backends.

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

from ..validate.stats import TolerancePolicy
from .archive import compare_figures, save_figure
from .config import plan_for
from .faultinject import BackendFaultPlan
from .figures import FIGURE_SPECS
from .resilience import ResilienceOptions, RetryPolicy
from .runner import FigureResult, run_sweep

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
        entries from the tolerance comparison (empty when within
        tolerance).
    band_violations:
        Points whose clean/faulted difference exceeds the
        :class:`~repro.validate.stats.TolerancePolicy` band.
    events_by_kind / degraded:
        Summary of the faulted run's resilience event log (what
        actually fired: timeouts, failures, retries, degradations).
    faults_fired:
        At least one injected fault was observed (a chaos run whose
        plan never fires proves nothing).
    clean_wall_clock / faulted_wall_clock:
        Wall-clock seconds of the two runs.
    """

    figure_id: str
    points: int
    backend: str
    bit_identical: bool
    discrepancies: List[str] = field(default_factory=list)
    band_violations: List[str] = field(default_factory=list)
    events_by_kind: Dict[str, int] = field(default_factory=dict)
    degraded: List[str] = field(default_factory=list)
    faults_fired: bool = True
    clean_wall_clock: float = 0.0
    faulted_wall_clock: float = 0.0

    @property
    def recovered(self) -> bool:
        """The faulted run produced values matching the clean run.

        True when the archives are bit-identical, or agree within both
        the archive tolerance and the validation bands.
        """
        return self.bit_identical or (
            not self.discrepancies and not self.band_violations
        )

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
        if self.band_violations:
            lines.append(
                f"  tolerance bands: {len(self.band_violations)} violation(s)"
            )
            lines.extend(f"    {entry}" for entry in self.band_violations)
        else:
            lines.append("  tolerance bands: all points within band")
        lines.append(
            "  verdict: RECOVERED" if self.recovered else "  verdict: FAILED"
        )
        return lines


def default_chaos_resilience(
    backend: str,
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


def _scaled_plan(preset: str, scale: float):
    """The preset's simulation plan with effort scaled by ``scale``."""
    plan = plan_for(preset)
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    if scale == 1.0:
        return plan
    return replace(
        plan, warmup=plan.warmup * scale, observation=plan.observation * scale
    )


def run_chaos(
    figure_id: str = "fig4a",
    preset: str = "quick",
    seed: int = 0,
    scale: float = 1.0,
    max_points: Optional[int] = None,
    fault_plan: Optional[BackendFaultPlan] = None,
    options: Optional[ResilienceOptions] = None,
    tolerance: float = 0.15,
    policy: Optional[TolerancePolicy] = None,
    out_dir: Optional[str] = None,
) -> ChaosOutcome:
    """Run one figure clean and faulted; compare the archives.

    ``max_points`` slices the figure's sweep to its first N points
    (the CI smoke runs a handful, not all 30 of fig4a), and ``scale``
    shrinks the simulation effort like the validation CLI's
    ``--scale``. ``fault_plan`` defaults to a crash-every-attempt plan
    on half the evaluations of the figure's own backend, and
    ``options`` (the faulted sweep's options) defaults to
    :func:`default_chaos_resilience` with a ``san-sim-full`` fallback
    when the figure runs on ``san-sim``.

    Both runs use the pool executor with its default two workers: it
    is the only executor that can kill a hung evaluation, and the
    supervisor logs the faulted run's events in the parent process
    whatever the executor. Custom (non-sweep) figures are rejected —
    there is no point-level evaluation to afflict.

    When ``out_dir`` is given, both archives (and their manifests) are
    saved under ``<out_dir>/clean`` and ``<out_dir>/faulted``.
    """
    try:
        spec = FIGURE_SPECS[figure_id]
    except KeyError:
        raise ValueError(
            f"unknown figure {figure_id!r}; known: "
            f"{', '.join(sorted(FIGURE_SPECS))}"
        ) from None
    if spec.custom is not None:
        raise ValueError(
            f"figure {figure_id!r} is a custom (non-sweep) figure and "
            "cannot run under backend chaos"
        )
    backend = spec.backend
    points = list(spec.points())
    if max_points is not None:
        if max_points < 1:
            raise ValueError(f"max_points must be >= 1, got {max_points}")
        points = points[:max_points]
    plan = _scaled_plan(preset, scale)

    if fault_plan is None:
        fault_plan = BackendFaultPlan(
            backend_id=backend, crash_fraction=0.5, crash_attempts=None
        )
    if options is None:
        degrade_to = ("san-sim-full",) if backend == "san-sim" else ()
        options = default_chaos_resilience(
            backend, fault_plan, degrade_to=degrade_to
        )
    elif options.fault_plan is None:
        options = replace(options, fault_plan=fault_plan)

    def _run(label: str, resilience: ResilienceOptions) -> FigureResult:
        figure = run_sweep(
            figure_id,
            spec.title,
            spec.x_label,
            spec.metric,
            points,
            plan,
            seed=seed,
            resilience=resilience,
            backend=backend,
            executor="pool",
        )
        if out_dir is not None:
            save_figure(figure, os.path.join(out_dir, label))
        return figure

    clean = _run("clean", ResilienceOptions())
    faulted = _run("faulted", options)

    bit_identical = clean.series == faulted.series
    discrepancies = [
        str(entry)
        for entry in compare_figures(clean, faulted, rel_tolerance=tolerance)
    ]

    policy = policy or TolerancePolicy(
        alpha=0.01, rel_tolerance=tolerance, abs_tolerance=0.0
    )
    band_violations: List[str] = []
    for label, clean_points in clean.series.items():
        faulted_by_x = {
            x: y for x, y, _ in faulted.series.get(label, [])
        }
        for x, clean_y, _ in clean_points:
            if x not in faulted_by_x:
                band_violations.append(f"{label!r} at x={x:g}: missing point")
                continue
            faulted_y = faulted_by_x[x]
            band = policy.band(clean_y, faulted_y)
            if abs(faulted_y - clean_y) > band:
                band_violations.append(
                    f"{label!r} at x={x:g}: |{faulted_y:.6g} - {clean_y:.6g}|"
                    f" > band {band:.4g}"
                )

    section = (faulted.manifest.resilience or {}) if faulted.manifest else {}
    summary = section.get("summary") or {}
    by_kind = dict(summary.get("by_kind") or {})
    degraded = list(summary.get("degraded") or [])
    fault_kinds = {"retry", "timeout", "failure", "degraded"}
    faults_fired = any(by_kind.get(kind, 0) > 0 for kind in fault_kinds)

    return ChaosOutcome(
        figure_id=figure_id,
        points=len(points),
        backend=backend,
        bit_identical=bit_identical,
        discrepancies=discrepancies,
        band_violations=band_violations,
        events_by_kind=by_kind,
        degraded=degraded,
        faults_fired=faults_fired,
        clean_wall_clock=(
            clean.manifest.wall_clock_seconds if clean.manifest else 0.0
        ),
        faulted_wall_clock=(
            faulted.manifest.wall_clock_seconds if faulted.manifest else 0.0
        ),
    )
