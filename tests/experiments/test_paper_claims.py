"""Tests for the executable paper-claims checker."""

import pytest

from repro.experiments import CLAIMS, FigureResult, evaluate_claims, render_claims
from repro.experiments.paper_claims import Claim


def synthetic_fig4a(peak_at=131072, uwf_at_peak=0.43):
    figure = FigureResult("fig4a", "t", "n", "total_useful_work")
    grid = [8192, 16384, 32768, 65536, 131072, 262144]
    # A unimodal curve peaking at `peak_at` with the requested UWF.
    points = []
    for n in grid:
        distance = abs(grid.index(n) - grid.index(peak_at))
        y = uwf_at_peak * peak_at * (1.0 - 0.2 * distance)
        points.append((float(n), max(y, 1.0), 0.0))
    figure.series["MTTF (yrs) = 1"] = points
    return figure


def synthetic_fig8(drop=0.24):
    figure = FigureResult("fig8", "t", "n", "useful_work_fraction")
    grid = [8192.0, 262144.0]
    figure.series["without correlated failure"] = [(x, 0.6, 0.0) for x in grid]
    figure.series["with correlated failure"] = [(x, 0.6 - drop, 0.0) for x in grid]
    return figure


class TestClaimChecks:
    def test_optimum_processors_claim(self):
        claim = next(c for c in CLAIMS if c.claim_id == "optimum-processors")
        measured, holds = claim.check(synthetic_fig4a(peak_at=131072))
        assert holds
        _, holds_wrong = claim.check(synthetic_fig4a(peak_at=32768))
        assert not holds_wrong

    def test_below_half_claim(self):
        claim = next(c for c in CLAIMS if c.claim_id == "below-half")
        _, holds = claim.check(synthetic_fig4a(uwf_at_peak=0.43))
        assert holds
        _, too_good = claim.check(synthetic_fig4a(uwf_at_peak=0.8))
        assert not too_good

    def test_generic_degradation_claim(self):
        claim = next(c for c in CLAIMS if c.claim_id == "generic-degradation")
        _, holds = claim.check(synthetic_fig8(drop=0.25))
        assert holds
        _, too_small = claim.check(synthetic_fig8(drop=0.02))
        assert not too_small

    def test_all_claims_reference_known_figures(self):
        from repro.experiments import FIGURE_SPECS

        for claim in CLAIMS:
            assert claim.figure_id in FIGURE_SPECS

    def test_claim_ids_unique(self):
        ids = [claim.claim_id for claim in CLAIMS]
        assert len(ids) == len(set(ids))


class TestEvaluateClaims:
    def test_uses_supplied_figures(self):
        # With figures supplied for every referenced id, nothing is
        # simulated.
        figures = {"fig4a": synthetic_fig4a(), "fig8": synthetic_fig8()}
        claims = [
            c for c in CLAIMS if c.figure_id in figures
        ]
        outcomes = evaluate_claims(figures=figures, claims=claims)
        assert len(outcomes) == len(claims)
        assert all(outcome.holds for outcome in outcomes)

    def test_render(self):
        figures = {"fig8": synthetic_fig8()}
        claims = [c for c in CLAIMS if c.figure_id == "fig8"]
        outcomes = evaluate_claims(figures=figures, claims=claims)
        text = render_claims(outcomes)
        assert "MATCH" in text
        assert "claims reproduced" in text

    def test_diverging_claim_reported(self):
        figures = {"fig8": synthetic_fig8(drop=0.01)}
        claims = [c for c in CLAIMS if c.figure_id == "fig8"]
        outcomes = evaluate_claims(figures=figures, claims=claims)
        assert not outcomes[0].holds
        assert "DIVERGES" in render_claims(outcomes)

    def test_archived_figure_gets_the_same_verdicts(self, tmp_path):
        # A sweep keeps the grid's ints as x; an archive reads them
        # back as floats.
        from repro.experiments import load_figure, save_figure
        from repro.experiments.config import INTERVAL_GRID_MIN, PROCESSOR_GRID

        figure = FigureResult("fig4b", "t", "x", "total_useful_work")
        for n in PROCESSOR_GRID:
            figure.series[f"processors = {n}"] = [
                (x, 1000.0 - x, 0.0) for x in INTERVAL_GRID_MIN
            ]
        archived = load_figure(save_figure(figure, str(tmp_path)))
        claims = [c for c in CLAIMS if c.figure_id == "fig4b"]

        def verdicts(judged):
            outcomes = evaluate_claims(figures={"fig4b": judged}, claims=claims)
            return [str(outcome) for outcome in outcomes]

        assert len(verdicts(figure)) == len(claims)
        assert verdicts(archived) == verdicts(figure)

    def test_custom_claim(self):
        probe = Claim(
            "probe", "fig8", "probe claim", "n/a",
            lambda figure: ("ok", True),
        )
        outcomes = evaluate_claims(
            figures={"fig8": synthetic_fig8()}, claims=[probe]
        )
        assert outcomes[0].holds
        assert outcomes[0].measured == "ok"
