"""A ``--max-points`` slice is judged only on the points it has.

A shape check or a claim whose series or x values a slice lacks is
skipped, so a slice neither ends in a traceback (and an unwritten
archive) nor prints a verdict on the wrong points. The sweeps run on
a micro plan: these tests pin which checks run, not their values.
"""

import pytest

from repro.core import HOUR, SimulationPlan
from repro.experiments import (
    CLAIMS,
    FIGURE_SPECS,
    FigureResult,
    cli,
    evaluate_claims,
    figures,
)
from repro.experiments.archive import load_figure
from repro.experiments.config import (
    PROPAGATION_FACTOR_GRID,
    PROPAGATION_PROBABILITY_GRID,
)
from repro.experiments.validation import validate_figure
from repro.obs import load_manifest, manifest_path

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


def _fig7(drop_last: bool = False) -> FigureResult:
    figure = FigureResult("fig7", "t", "p_e", "useful_work_fraction")
    for r in PROPAGATION_FACTOR_GRID:
        figure.series[f"frate_correlated_times={r}"] = [
            (p_e, 0.55, 0.01) for p_e in PROPAGATION_PROBABILITY_GRID
        ]
    if drop_last:
        figure.series[f"frate_correlated_times={PROPAGATION_FACTOR_GRID[-1]}"].pop()
    return figure


def test_fig7_is_judged_only_on_its_whole_grid():
    fig7_claims = [claim for claim in CLAIMS if claim.figure_id == "fig7"]
    assert [check.name for check in validate_figure(_fig7())] == [
        "fig7 insensitivity to propagation-correlated failures"
    ]
    assert len(evaluate_claims({"fig7": _fig7()}, claims=fig7_claims)) == 1
    assert validate_figure(_fig7(drop_last=True)) == []
    assert evaluate_claims({"fig7": _fig7(drop_last=True)}, claims=fig7_claims) == []


def test_fig7_slice_prints_no_verdict_and_its_claim_is_not_judged(capsys):
    assert cli.main(["run-figure", "fig7", "--preset", "quick",
                     "--max-points", "1"]) == 0
    assert "fig7 insensitivity" not in capsys.readouterr().out
    cli.main(["claims", "--preset", "quick", "--max-points", "1"])
    not_judged = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("not judged")]
    assert len(not_judged) == 1 and "propagation-insensitive" in not_judged[0]


def test_run_all_slice_passes_and_writes_every_figure_to_one_trace(
    tmp_path, capsys
):
    # Custom figures run whole, without the sweep-only --max-points,
    # and every figure's events land in the one file: its line count
    # is the sum of the printed per-figure counts, and each manifest
    # counts only its own figure's events.
    trace = tmp_path / "t.jsonl"
    out = tmp_path / "out"
    rc = cli.main(["run-all", "--preset", "quick", "--max-points", "1",
                   "--no-validate", "--trace-out", str(trace),
                   "--trace-sample", "50", "--save-json", str(out)])
    stdout = capsys.readouterr().out
    assert rc == 0
    custom = sorted(fid for fid, spec in FIGURE_SPECS.items() if spec.custom)
    assert [line.split()[0] for line in stdout.splitlines()
            if "is not a SAN sweep: running it without --max-points" in line
            ] == custom
    written = [int(line.split()[1]) for line in stdout.splitlines()
               if line.startswith("trace: ")]
    assert len(written) == len(FIGURE_SPECS)
    assert len(trace.read_text().splitlines()) == sum(written) > 0
    for figure_id, count in zip(sorted(FIGURE_SPECS), written):
        if FIGURE_SPECS[figure_id].custom is None:
            manifest = load_manifest(manifest_path(str(out), figure_id))
            assert manifest.trace["written"] == count
