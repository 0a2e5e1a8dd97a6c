"""Result archival and regression comparison.

A reproduction repository needs its numbers to be *diffable*: this
module persists regenerated figures as JSON and compares two archives
(e.g. today's run vs the checked-in reference) within statistical
tolerance, so refactors can prove they did not move the results.

Layout: one ``<figure_id>.json`` per figure inside an archive
directory, written by :func:`save_figure` / :func:`save_archive` and
compared by :func:`compare_figures` / :func:`compare_archives`.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional

from .._atomic import atomic_write
from .._version import __version__
from ..obs import write_manifest
from .resilience import FailureReport
from .runner import FigureResult

__all__ = [
    "FIGURE_SCHEMA_VERSION",
    "save_figure",
    "load_figure",
    "save_archive",
    "load_archive",
    "Discrepancy",
    "compare_figures",
    "compare_archives",
]

#: Version of the figure-archive JSON schema. Version 1 is the
#: pre-backend layout (no ``schema_version`` stamp at all); version 2
#: adds ``schema_version``, ``repro_version`` and ``backend``.
FIGURE_SCHEMA_VERSION = 2


def save_figure(figure: FigureResult, directory: str) -> str:
    """Write one figure as ``<directory>/<figure_id>.json``; returns
    the path.

    The write is atomic: the JSON is rendered to a temporary file in
    the same directory, fsync'd, and :func:`os.replace`'d into place,
    so a crash mid-save leaves either the previous archive or the new
    one — never a truncated file.

    When the figure carries a run manifest (every figure produced by
    :func:`~repro.experiments.runner.run_sweep` or
    :func:`~repro.experiments.figures.run_figure` does), it is written
    alongside as ``<figure_id>.manifest.json`` with the same atomic
    discipline, so the archive and its provenance travel together.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{figure.figure_id}.json")
    payload = {
        "schema_version": FIGURE_SCHEMA_VERSION,
        "repro_version": __version__,
        "figure_id": figure.figure_id,
        "title": figure.title,
        "x_label": figure.x_label,
        "metric": figure.metric,
        "backend": figure.backend,
        "unvalidated_intervals": figure.unvalidated_intervals,
        "series": {
            label: [[x, y, h] for x, y, h in points]
            for label, points in figure.series.items()
        },
        "notes": list(figure.notes),
        "failures": [asdict(report) for report in figure.failures],
    }
    atomic_write(
        path, json.dumps(payload, indent=2, sort_keys=True),
        prefix=f".{figure.figure_id}.", suffix=".json.tmp",
    )
    if figure.manifest is not None:
        write_manifest(figure.manifest, directory)
    return path


def load_figure(path: str) -> FigureResult:
    """Read a figure written by :func:`save_figure`.

    Raises a :class:`ValueError` naming the offending path when the
    file is not valid JSON, lacks the expected structure, or was
    written under a *newer* archive schema than this package reads,
    so a corrupted or future archive is diagnosable instead of
    surfacing as a bare ``KeyError`` deep inside a comparison.

    Legacy archives (schema version 1, written before the stamp
    existed) are migrated on load: the figure gains a note recording
    the migration and a ``None`` backend.
    """
    with open(path, "r", encoding="utf-8") as handle:
        raw = handle.read()
    try:
        payload = json.loads(raw)
    except ValueError as exc:
        raise ValueError(f"malformed figure archive {path!r}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(
            f"malformed figure archive {path!r}: expected a JSON object, "
            f"got {type(payload).__name__}"
        )
    version = payload.get("schema_version", 1)
    if not isinstance(version, int) or version > FIGURE_SCHEMA_VERSION:
        raise ValueError(
            f"figure archive {path!r} has schema version {version!r}; this "
            f"package reads versions 1..{FIGURE_SCHEMA_VERSION} — it was "
            "likely written by a newer repro release"
        )
    try:
        figure = FigureResult(
            figure_id=payload["figure_id"],
            title=payload["title"],
            x_label=payload["x_label"],
            metric=payload["metric"],
            backend=payload.get("backend"),
            unvalidated_intervals=bool(
                payload.get("unvalidated_intervals", False)
            ),
        )
        for label, points in payload["series"].items():
            figure.series[label] = [
                (float(x), float(y), float(h)) for x, y, h in points
            ]
        figure.notes = list(payload.get("notes", []))
        figure.failures = [
            FailureReport(**report) for report in payload.get("failures", [])
        ]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"malformed figure archive {path!r}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    if version < FIGURE_SCHEMA_VERSION:
        figure.notes.append(
            f"migrated from archive schema version {version} "
            f"(current: {FIGURE_SCHEMA_VERSION}); no backend recorded"
        )
    return figure


def save_archive(figures: Iterable[FigureResult], directory: str) -> List[str]:
    """Write many figures; returns the written paths."""
    return [save_figure(figure, directory) for figure in figures]


def load_archive(directory: str) -> Dict[str, FigureResult]:
    """Read every ``*.json`` figure in a directory, keyed by id."""
    figures: Dict[str, FigureResult] = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".manifest.json"):
            continue  # run manifests live beside figures, not in them
        if name.endswith(".json"):
            figure = load_figure(os.path.join(directory, name))
            figures[figure.figure_id] = figure
    return figures


@dataclass(frozen=True)
class Discrepancy:
    """One difference between two archives."""

    figure_id: str
    kind: str  # "missing-series", "missing-point", "value"
    detail: str

    def __str__(self) -> str:
        return f"{self.figure_id}: [{self.kind}] {self.detail}"


def compare_figures(
    reference: FigureResult,
    candidate: FigureResult,
    rel_tolerance: float = 0.15,
    use_half_widths: bool = True,
) -> List[Discrepancy]:
    """Differences between two regenerations of the same figure.

    A point agrees when the values differ by less than
    ``rel_tolerance`` relative to the reference, *or* (with
    ``use_half_widths``) when the two confidence intervals overlap —
    whichever is more permissive, since independent stochastic runs
    legitimately differ within their own error bars.

    The overlap escape hatch only applies when the intervals are
    *informative*: at least one half-width must be positive, and
    neither figure may be flagged ``unvalidated_intervals`` (the n=1
    case, where a half-width of 0 means "unknown", not "exact").
    Previously two single-replication runs whose values happened to
    match exactly — or an n=1 run compared against the paper — could
    claim statistical agreement from zero-width intervals; now such
    points must pass the plain relative tolerance.
    """
    if not 0 <= rel_tolerance:
        raise ValueError(f"rel_tolerance must be >= 0, got {rel_tolerance}")
    intervals_informative = not (
        reference.unvalidated_intervals or candidate.unvalidated_intervals
    )
    discrepancies: List[Discrepancy] = []
    fid = reference.figure_id
    for label, ref_points in reference.series.items():
        cand_points = candidate.series.get(label)
        if cand_points is None:
            discrepancies.append(
                Discrepancy(fid, "missing-series", f"candidate lacks {label!r}")
            )
            continue
        cand_by_x = {x: (y, h) for x, y, h in cand_points}
        for x, ref_y, ref_h in ref_points:
            if x not in cand_by_x:
                discrepancies.append(
                    Discrepancy(fid, "missing-point", f"{label!r} lacks x={x:g}")
                )
                continue
            cand_y, cand_h = cand_by_x[x]
            scale = max(abs(ref_y), 1e-12)
            within_tolerance = abs(cand_y - ref_y) <= rel_tolerance * scale
            intervals_overlap = (
                use_half_widths
                and intervals_informative
                and (ref_h > 0 or cand_h > 0)
                and abs(cand_y - ref_y) <= ref_h + cand_h
            )
            if not (within_tolerance or intervals_overlap):
                discrepancies.append(
                    Discrepancy(
                        fid,
                        "value",
                        f"{label!r} at x={x:g}: reference {ref_y:.6g} ± {ref_h:.2g}"
                        f" vs candidate {cand_y:.6g} ± {cand_h:.2g}",
                    )
                )
    return discrepancies


def compare_archives(
    reference_dir: str,
    candidate_dir: str,
    rel_tolerance: float = 0.15,
) -> List[Discrepancy]:
    """Compare every figure present in the reference archive."""
    reference = load_archive(reference_dir)
    candidate = load_archive(candidate_dir)
    discrepancies: List[Discrepancy] = []
    for figure_id, ref_figure in reference.items():
        cand_figure = candidate.get(figure_id)
        if cand_figure is None:
            discrepancies.append(
                Discrepancy(figure_id, "missing-series", "figure absent from candidate")
            )
            continue
        discrepancies.extend(
            compare_figures(ref_figure, cand_figure, rel_tolerance)
        )
    return discrepancies
