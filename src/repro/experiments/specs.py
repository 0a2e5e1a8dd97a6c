"""Declarative figure specifications.

A :class:`FigureSpec` says everything a paper figure needs — id,
axis labels, metric, evaluation backend, and how to build its sweep
points — so one generic runner
(:func:`repro.experiments.figures.run_figure`) can regenerate any of
them. Figures whose shape does not fit a sweep (exact chain solves,
the coordination-law cross-validation) plug in a ``custom`` callable
instead and keep the same calling convention.

This replaces the old pattern of one hand-written function per figure
threading eight positional arguments into ``run_sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from .runner import DEFAULT_BACKEND, FigureResult, SweepPoint

__all__ = ["FigureSpec"]


@dataclass(frozen=True)
class FigureSpec:
    """Everything needed to regenerate one figure.

    Attributes
    ----------
    figure_id:
        The figure's id (CLI name, archive filename, journal name).
    title:
        Plot title, as rendered in reports.
    x_label:
        X-axis label.
    metric:
        Y-axis metric (``"useful_work_fraction"`` or
        ``"total_useful_work"``).
    points:
        Zero-argument callable building the sweep's
        :class:`~repro.experiments.runner.SweepPoint` list. ``None``
        for custom figures.
    backend:
        Registered evaluation backend the sweep runs through.
    post:
        Optional hook run on the finished figure (e.g. attaching
        closed-form prediction notes).
    custom:
        For figures that are not sweeps: a callable with the figure
        signature ``(preset, seed, processes, resilience)`` that
        builds the whole :class:`FigureResult` itself. When set,
        ``points`` and ``post`` are unused.
    """

    figure_id: str
    title: str = ""
    x_label: str = ""
    metric: str = "useful_work_fraction"
    points: Optional[Callable[[], List[SweepPoint]]] = None
    backend: str = DEFAULT_BACKEND
    post: Optional[Callable[[FigureResult], None]] = None
    custom: Optional[Callable[..., FigureResult]] = None

    def __post_init__(self) -> None:
        if self.custom is None and self.points is None:
            raise ValueError(
                f"figure spec {self.figure_id!r} needs either a points "
                "builder or a custom runner"
            )
