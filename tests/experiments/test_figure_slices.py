"""A ``--max-points`` slice is judged only on the points it has.

A shape check or a claim whose series or x values a slice lacks is
skipped, so a slice neither ends in a traceback (and an unwritten
archive) nor prints a verdict on the wrong points. The sweeps run on
a micro plan: these tests pin which checks run, not their values.
"""

import pytest

from repro.core import HOUR, SimulationPlan
from repro.experiments import CLAIMS, FigureResult, cli, evaluate_claims, figures
from repro.experiments.archive import load_figure

MICRO = SimulationPlan(warmup=1 * HOUR, observation=8 * HOUR, replications=1)


@pytest.fixture(autouse=True)
def micro_plans(monkeypatch):
    monkeypatch.setattr(figures, "plan_for", lambda preset: MICRO)


@pytest.mark.parametrize("figure_id, points", [
    ("fig4b", 2), ("fig4d", 2), ("fig4f", 2), ("fig5", 1),
])
def test_slice_of_a_curve_check_writes_its_archive(figure_id, points,
                                                   tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["run-figure", figure_id, "--preset", "quick",
                   "--max-points", str(points), "--save-json", str(out)])
    assert rc == 0
    assert "[FAIL]" not in capsys.readouterr().out
    figure = load_figure(str(out / f"{figure_id}.json"))
    assert sum(len(series) for series in figure.series.values()) == points


def test_fig8_slice_is_not_judged_at_its_smallest_system(capsys):
    rc = cli.main(["run-figure", "fig8", "--preset", "quick",
                   "--max-points", "2"])
    assert rc == 0
    assert "fig8 correlated degradation" not in capsys.readouterr().out


def test_one_point_fig4a_leaves_its_claims_unjudged():
    figure = FigureResult("fig4a", "t", "n", "total_useful_work")
    figure.series["MTTF (yrs) = 0.125"] = [(8192.0, 1000.0, 10.0)]
    fig4a_claims = [claim for claim in CLAIMS if claim.figure_id == "fig4a"]
    assert fig4a_claims
    assert evaluate_claims(figures={"fig4a": figure}, claims=fig4a_claims) == []
