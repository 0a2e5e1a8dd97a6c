"""The paper's claims as executable checks.

EXPERIMENTS.md records the paper-vs-measured comparison as prose; this
module makes the comparison *executable*: each :class:`Claim` names a
claim the paper makes, the figure it rests on, the value the paper
reports, and a function that extracts the measured counterpart and
judges it. ``python -m repro claims`` regenerates each needed figure
the way ``run-figure`` does (or reads it from an archive) and prints
the verdict table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .config import (
    INTERVAL_GRID_MIN,
    PROCESSOR_GRID,
    PROPAGATION_FACTOR_GRID,
    PROPAGATION_PROBABILITY_GRID,
)
from .runner import FigureResult

__all__ = ["Claim", "ClaimOutcome", "CLAIMS", "evaluate_claims", "render_claims"]

#: A check returns (measured description, holds?), or None when the
#: figure lacks a series or x value the check reads (a
#: ``--max-points`` slice): such a claim is not judged.
Verdict = Optional[Tuple[str, bool]]
CheckFunction = Callable[[FigureResult], Verdict]


@dataclass(frozen=True)
class Claim:
    """One claim the paper makes about its results."""

    claim_id: str
    figure_id: str
    description: str
    paper_value: str
    check: CheckFunction


@dataclass(frozen=True)
class ClaimOutcome:
    """The verdict on one claim."""

    claim: Claim
    measured: str
    holds: bool

    def __str__(self) -> str:
        marker = "MATCH" if self.holds else "DIVERGES"
        return (
            f"[{marker}] {self.claim.claim_id}: {self.claim.description}\n"
            f"          paper: {self.claim.paper_value}\n"
            f"          measured: {self.measured}"
        )


def _covers(
    figure: FigureResult, labels: Sequence[str], xs: Sequence[float]
) -> bool:
    """Whether the figure has every curve in ``labels`` at every x in
    ``xs``."""
    for label in labels:
        present = {x for x, _, _ in figure.series.get(label, ())}
        if not all(x in present for x in xs):
            return False
    return True


def _covers_propagation_grid(figure: FigureResult) -> bool:
    """Whether a fig7 figure has every r curve at every p_e."""
    labels = [f"frate_correlated_times={r}" for r in PROPAGATION_FACTOR_GRID]
    return _covers(figure, labels, PROPAGATION_PROBABILITY_GRID)


def _optimum_processors(figure: FigureResult) -> Verdict:
    if not _covers(figure, ["MTTF (yrs) = 1"], PROCESSOR_GRID):
        return None
    peak = figure.peak_x("MTTF (yrs) = 1")
    return f"peak at {int(peak)} processors", peak == 131072


def _uwf_at_peak(figure: FigureResult) -> Verdict:
    label = "MTTF (yrs) = 1"
    if not _covers(figure, [label], PROCESSOR_GRID):
        return None
    peak_x = figure.peak_x(label)
    points = {x: y for x, y, _ in figure.series[label]}
    fraction = points[peak_x] / peak_x
    return f"UWF {fraction:.3f} at {int(peak_x)} processors", abs(fraction - 0.427) < 0.06


def _below_half_at_peak(figure: FigureResult) -> Verdict:
    label = "MTTF (yrs) = 1"
    if not _covers(figure, [label], PROCESSOR_GRID):
        return None
    peak_x = figure.peak_x(label)
    points = {x: y for x, y, _ in figure.series[label]}
    fraction = points[peak_x] / peak_x
    return f"UWF {fraction:.3f}", fraction < 0.5


def _flat_then_fall_64k(figure: FigureResult) -> Verdict:
    if not _covers(figure, ["processors = 65536"], INTERVAL_GRID_MIN[:3]):
        return None
    ys = figure.y_values("processors = 65536")
    head_variation = abs(ys[1] - ys[0]) / max(ys[0], ys[1])
    drop = (ys[1] - ys[2]) / ys[1]
    holds = head_variation < 0.15 and drop > 0.1
    return (
        f"15->30 min change {head_variation:.1%}, 30->60 min drop {drop:.1%}",
        holds,
    )


def _no_practical_optimum(figure: FigureResult) -> Verdict:
    # For every system size, the best interval is 15 or 30 minutes.
    labels = [f"processors = {n}" for n in PROCESSOR_GRID]
    if not _covers(figure, labels, INTERVAL_GRID_MIN):
        return None
    winners = []
    for label, points in figure.series.items():
        best_x = max(points, key=lambda p: p[1])[0]
        winners.append(int(best_x))  # an archive reads 15 back as 15.0
    holds = all(x <= 30 for x in winners)
    return f"best intervals: {sorted(set(winners))}", holds


def _optimum_shifts_with_interval(figure: FigureResult) -> Verdict:
    labels = ["chkpt_interval (mins) = 30", "chkpt_interval (mins) = 60"]
    if not _covers(figure, labels, PROCESSOR_GRID):
        return None
    peak_30 = figure.peak_x("chkpt_interval (mins) = 30")
    peak_60 = figure.peak_x("chkpt_interval (mins) = 60")
    return (
        f"peak {int(peak_30)} at 30 min, {int(peak_60)} at 60 min",
        peak_30 == 131072 and peak_60 == 65536,
    )


def _coordination_logarithmic(figure: FigureResult) -> Verdict:
    # Each 4x step in n costs a roughly constant increment: compare
    # the drops over the two halves of the 1..4^15 grid.
    label, middle, last = "MTTQ=10s", 4**8, 4**15
    if not _covers(figure, [label], (1, middle, last)):
        return None
    ys = {x: y for x, y, _ in figure.series[label]}
    total_drop = ys[1] - ys[last]
    first = ys[1] - ys[middle]
    second = ys[middle] - ys[last]
    holds = total_drop < 0.12 and abs(first - second) < 0.4 * total_drop
    return (
        f"total drop {total_drop:.3f} over 2^30x processors, halves "
        f"{first:.3f}/{second:.3f}",
        holds,
    )


def _small_timeouts_collapse(figure: FigureResult) -> Verdict:
    if not _covers(figure, ["no timeout", "timeout=20s"], (8192,)):
        return None
    none = figure.y_values("no timeout")[0]  # 8192 processors
    short = figure.y_values("timeout=20s")[0]
    return f"UWF {none:.3f} without timeout vs {short:.3f} at 20 s", short < 0.5 * none


def _generous_timeout_safe_small(figure: FigureResult) -> Verdict:
    if not _covers(figure, ["no timeout", "timeout=120s"], (8192,)):
        return None
    none = figure.y_values("no timeout")[0]
    generous = figure.y_values("timeout=120s")[0]
    return f"UWF {generous:.3f} at 120 s vs {none:.3f}", abs(generous - none) < 0.1


def _propagation_insensitive(figure: FigureResult) -> Verdict:
    if not _covers_propagation_grid(figure):
        return None
    values = [y for points in figure.series.values() for _, y, _ in points]
    spread = (max(values) - min(values)) / max(values)
    return f"UWF band {min(values):.3f}-{max(values):.3f}", spread < 0.25


def _generic_drop(figure: FigureResult) -> Verdict:
    labels = ["without correlated failure", "with correlated failure"]
    if not _covers(figure, labels, (262144,)):
        return None
    without = {x: y for x, y, _ in figure.series["without correlated failure"]}
    with_cf = {x: y for x, y, _ in figure.series["with correlated failure"]}
    drop = without[262144] - with_cf[262144]
    return f"absolute UWF drop {drop:.3f} at 256K processors", abs(drop - 0.24) < 0.1


#: Every executable claim, in paper order.
CLAIMS: List[Claim] = [
    Claim(
        "optimum-processors",
        "fig4a",
        "Optimum processor count at MTTF 1 yr, MTTR 10 min, 30-min interval",
        "~128K (131072)",
        _optimum_processors,
    ),
    Claim(
        "uwf-at-peak",
        "fig4a",
        "Useful work fraction at the optimum",
        "0.427",
        _uwf_at_peak,
    ),
    Claim(
        "below-half",
        "fig4a",
        "Even at the optimum, UWF stays below 50%",
        "< 0.5",
        _below_half_at_peak,
    ),
    Claim(
        "flat-then-fall",
        "fig4b",
        "TUW ~constant for 15-30 min, drops sharply past 30 min (64K procs)",
        "43000 -> 40000 -> 30000 job units",
        _flat_then_fall_64k,
    ),
    Claim(
        "no-practical-optimum",
        "fig4b",
        "No optimal interval within the practical 15 min - 4 h range",
        "true (theoretical optimum < 15 min)",
        _no_practical_optimum,
    ),
    Claim(
        "optimum-vs-interval",
        "fig4e",
        "Optimum processors: 128K at 30-min interval, 64K at 60-min",
        "128K -> 64K",
        _optimum_shifts_with_interval,
    ),
    Claim(
        "coordination-logarithmic",
        "fig5",
        "Coordination cost grows logarithmically in the processor count",
        "UWF 0.97 -> ~0.87 over 1..2^30 (MTTQ 10 s)",
        _coordination_logarithmic,
    ),
    Claim(
        "small-timeouts-hurt",
        "fig6",
        "Small timeouts behave as probabilistic checkpoint-abort",
        "drastic drops for 20-80 s",
        _small_timeouts_collapse,
    ),
    Claim(
        "large-timeouts-safe",
        "fig6",
        "Past a threshold, performance is insensitive to the timeout (8K procs)",
        "~100 s threshold",
        _generous_timeout_safe_small,
    ),
    Claim(
        "propagation-insensitive",
        "fig7",
        "UWF insensitive to error-propagation correlated failures",
        "0.51-0.56 band",
        _propagation_insensitive,
    ),
    Claim(
        "generic-degradation",
        "fig8",
        "Generic correlated failures cut UWF by 0.24 at 256K processors",
        "0.24 absolute",
        _generic_drop,
    ),
]


def evaluate_claims(
    figures: Dict[str, FigureResult],
    claims: Optional[List[Claim]] = None,
) -> List[ClaimOutcome]:
    """Judge each claim on its figure in ``figures`` (keyed by figure
    id); runs nothing.

    A claim whose figure is absent, or lacks a point the claim reads,
    is not judged and has no outcome.
    """
    outcomes: List[ClaimOutcome] = []
    for claim in CLAIMS if claims is None else claims:
        figure = figures.get(claim.figure_id)
        verdict = None if figure is None else claim.check(figure)
        if verdict is not None:
            measured, holds = verdict
            outcomes.append(ClaimOutcome(claim=claim, measured=measured, holds=holds))
    return outcomes


def render_claims(outcomes: List[ClaimOutcome]) -> str:
    """A verdict report, one block per claim."""
    lines = ["Paper claims vs measured", "=" * 24, ""]
    matches = sum(1 for outcome in outcomes if outcome.holds)
    for outcome in outcomes:
        lines.append(str(outcome))
        lines.append("")
    lines.append(f"{matches}/{len(outcomes)} claims reproduced")
    return "\n".join(lines)
