"""Shared helpers for the benchmark suite.

Every figure benchmark regenerates its paper figure at the ``quick``
preset (one timed round — the regeneration *is* the benchmark) and
asserts the paper's qualitative shape via
:mod:`repro.experiments.validation`.
"""

from __future__ import annotations

import pytest

from repro.experiments import run_figure, validate_figure


def regenerate(benchmark, figure_id: str, seed: int = 0):
    """Time one regeneration of a figure at the quick preset."""
    return benchmark.pedantic(
        lambda: run_figure(figure_id, preset="quick", seed=seed),
        rounds=1, iterations=1,
    )


def assert_paper_shape(figure) -> None:
    """Fail with every broken qualitative claim listed."""
    failed = [check for check in validate_figure(figure) if not check.passed]
    assert not failed, "; ".join(str(check) for check in failed)


@pytest.fixture
def quick_figure(benchmark):
    """``quick_figure(figure_id)`` -> validated FigureResult."""

    def run(figure_id: str, seed: int = 0, validate: bool = True):
        figure = regenerate(benchmark, figure_id, seed=seed)
        if validate:
            assert_paper_shape(figure)
        return figure

    return run
