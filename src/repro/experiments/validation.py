"""Shape assertions: the reproduction criteria.

Absolute job-unit magnitudes depend on the substrate; what must hold
are the paper's qualitative conclusions. Each check returns a
:class:`ShapeCheck` (pass/fail plus an explanation) so the benchmark
suite and the CLI can report precisely which claim held or broke.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .config import INTERVAL_GRID_MIN
from .paper_claims import _covers_propagation_grid
from .runner import FigureResult

__all__ = [
    "ShapeCheck",
    "has_interior_maximum",
    "is_monotone_decreasing",
    "peak_shifts_left",
    "relative_drop",
    "flat_then_falling",
    "validate_figure",
]


@dataclass(frozen=True)
class ShapeCheck:
    """Outcome of one qualitative assertion."""

    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        marker = "PASS" if self.passed else "FAIL"
        return f"[{marker}] {self.name}: {self.detail}"


def has_interior_maximum(xs: Sequence[float], ys: Sequence[float], name: str) -> ShapeCheck:
    """The curve peaks strictly inside the grid (the paper's "optimum
    number of processors" claim)."""
    if len(xs) != len(ys) or len(xs) < 3:
        raise ValueError("need matching xs/ys with at least 3 points")
    peak = max(range(len(ys)), key=lambda i: ys[i])
    interior = 0 < peak < len(ys) - 1
    return ShapeCheck(
        name,
        interior,
        f"peak at x={xs[peak]:g} (index {peak} of 0..{len(ys) - 1})",
    )


def is_monotone_decreasing(
    xs: Sequence[float], ys: Sequence[float], name: str, tolerance: float = 0.0
) -> ShapeCheck:
    """y never rises by more than ``tolerance`` (relative) along x."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need matching xs/ys with at least 2 points")
    violations = [
        (xs[i], xs[i + 1])
        for i in range(len(ys) - 1)
        if ys[i + 1] > ys[i] * (1.0 + tolerance)
    ]
    return ShapeCheck(
        name,
        not violations,
        "monotone decreasing" if not violations else f"rises at {violations}",
    )


def peak_shifts_left(
    figure: FigureResult, ordered_labels: Sequence[str], name: str
) -> ShapeCheck:
    """The optimum x must not move right as the stress parameter grows
    (smaller MTTF / larger MTTR / larger interval all shift the
    optimum processor count down)."""
    peaks = [figure.peak_x(label) for label in ordered_labels]
    ok = all(peaks[i + 1] <= peaks[i] for i in range(len(peaks) - 1))
    detail = ", ".join(
        f"{label}: {peak:g}" for label, peak in zip(ordered_labels, peaks)
    )
    return ShapeCheck(name, ok, detail)


def relative_drop(before: float, after: float) -> float:
    """Fractional decrease from ``before`` to ``after``."""
    if before <= 0:
        raise ValueError(f"before must be > 0, got {before}")
    return (before - after) / before


def flat_then_falling(
    xs: Sequence[float],
    ys: Sequence[float],
    name: str,
    knee: float,
    flat_tolerance: float = 0.15,
    fall_minimum: float = 0.15,
) -> ShapeCheck:
    """The paper's Figure 4b/4f claim: roughly constant up to the knee
    (15–30 min), then a pronounced fall.

    ``flat_tolerance`` bounds the allowed relative change before the
    knee; ``fall_minimum`` is the required relative drop from the knee
    to the last point.
    """
    if len(xs) != len(ys) or len(xs) < 3:
        raise ValueError("need matching xs/ys with at least 3 points")
    knee_index = max(i for i, x in enumerate(xs) if x <= knee)
    head = ys[: knee_index + 1]
    flat = (max(head) - min(head)) <= flat_tolerance * max(head)
    fall = relative_drop(ys[knee_index], ys[-1]) >= fall_minimum
    return ShapeCheck(
        name,
        flat and fall,
        f"head variation {(max(head) - min(head)) / max(head):.2%}, "
        f"drop past knee {relative_drop(ys[knee_index], ys[-1]):.2%}",
    )


def _expects_interior_peak(figure_id: str, label: str) -> bool:
    """Whether the paper shows an interior optimum for this curve.

    Lightly-stressed configurations are still rising at the grid's
    right edge in the paper too (e.g. MTTF = 2 yr in Figure 4a, the
    15-minute interval in Figure 4e), so the interior-peak claim only
    applies to the stressed curves.
    """
    value = None
    if "=" in label:
        try:
            value = float(label.rsplit("=", 1)[1])
        except ValueError:
            value = None
    if figure_id in ("fig4a", "section7.1"):
        return value is not None and value <= 1.0  # MTTF in years
    if figure_id == "fig4c":
        return True  # every MTTR (10-80 min) peaks inside 8K-256K
    if figure_id == "fig4e":
        return value is not None and value >= 30.0  # interval in minutes
    return True


def _expects_flat_head(figure_id: str, label: str) -> bool:
    """Whether the paper shows the "flat 15-30 min, then falling"
    shape for this curve (moderately-stressed configurations only)."""
    value = None
    if "=" in label:
        try:
            value = float(label.rsplit("=", 1)[1])
        except ValueError:
            value = None
    if figure_id == "fig4b":
        return value is not None and value <= 65536  # processors
    if figure_id == "fig4f":
        return value is not None and value <= 8  # MTTF in years
    return True


def validate_figure(figure: FigureResult) -> List[ShapeCheck]:
    """The built-in checks for each known figure id.

    A check is skipped when the figure lacks the points it reads, as
    a ``--max-points`` slice does: an optimum needs 3 points, a
    decline 2, an interval curve the whole interval grid, fig7's
    spread every r curve at every p_e, and fig8's degradation both
    curves at 262144 processors.
    """
    checks: List[ShapeCheck] = []
    fid = figure.figure_id
    if fid in ("fig4a", "fig4c", "fig4e", "section7.1"):
        for label, points in figure.series.items():
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            if len(points) >= 3 and _expects_interior_peak(fid, label):
                checks.append(has_interior_maximum(xs, ys, f"{fid}/{label} optimum"))
    if fid in ("fig4b", "fig4d", "fig4f"):
        for label, points in figure.series.items():
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            if not set(INTERVAL_GRID_MIN) <= set(xs):
                continue
            if not _expects_flat_head(fid, label):
                # Outside the moderately-stressed regime the paper's
                # own curves are not flat either: extremely stressed
                # systems fall from the first interval, and lightly
                # stressed ones barely fall at all. Assert the shared
                # weaker claim: nothing beats frequent checkpoints.
                best = max(ys)
                checks.append(
                    ShapeCheck(
                        f"{fid}/{label} frequent checkpoints win",
                        max(ys[0], ys[1]) >= 0.95 * best,
                        f"best at x={xs[ys.index(best)]:g}",
                    )
                )
                continue
            checks.append(
                flat_then_falling(xs, ys, f"{fid}/{label} flat-then-falling", knee=30)
            )
    if fid == "fig5":
        for label, points in figure.series.items():
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            if len(points) < 2:
                continue
            checks.append(
                is_monotone_decreasing(
                    xs, ys, f"{fid}/{label} logarithmic decline", tolerance=0.01
                )
            )
    if fid == "fig8":
        without = {p[0]: p[1] for p in figure.series.get("without correlated failure", [])}
        with_cf = {p[0]: p[1] for p in figure.series.get("with correlated failure", [])}
        at_scale = 262144
        if at_scale in without and at_scale in with_cf:
            drop = relative_drop(without[at_scale], with_cf[at_scale])
            checks.append(
                ShapeCheck(
                    "fig8 correlated degradation at scale",
                    drop >= 0.2,
                    f"UWF drop at {at_scale} processors: {drop:.2%} (paper: ~51%)",
                )
            )
    if fid == "fig7" and _covers_propagation_grid(figure):
        values = [
            p[1] for points in figure.series.values() for p in points
        ]
        spread = (max(values) - min(values)) / max(values)
        checks.append(
            ShapeCheck(
                "fig7 insensitivity to propagation-correlated failures",
                spread <= 0.25,
                f"UWF spread across all p_e and r: {spread:.2%} "
                f"(paper band: 0.51-0.56, ~9%)",
            )
        )
    return checks
