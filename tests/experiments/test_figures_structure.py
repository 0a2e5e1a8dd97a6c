"""Structure tests for every figure spec, at micro scale.

Each figure must come out with the paper's exact series and grids. To
keep this affordable, the preset resolution is monkeypatched to a
tiny plan — these tests verify *structure* (labels, grids, configuration),
not statistics (the benchmarks and EXPERIMENTS.md cover those).
"""

import pytest

from repro.core import HOUR, SimulationPlan
from repro.experiments import figures

MICRO = SimulationPlan(warmup=1 * HOUR, observation=8 * HOUR, replications=1)


@pytest.fixture(autouse=True)
def micro_plans(monkeypatch):
    monkeypatch.setattr(figures, "plan_for", lambda preset: MICRO)


PROCESSOR_GRID = [8192.0, 16384.0, 32768.0, 65536.0, 131072.0, 262144.0]
INTERVALS = [15.0, 30.0, 60.0, 120.0, 240.0]


class TestFigure4Series:
    def test_fig4a(self):
        figure = figures.run_figure("fig4a", preset="quick", seed=1)
        assert set(figure.series) == {
            "MTTF (yrs) = 0.125",
            "MTTF (yrs) = 0.25",
            "MTTF (yrs) = 0.5",
            "MTTF (yrs) = 1",
            "MTTF (yrs) = 2",
        }
        for label in figure.series:
            assert figure.x_values(label) == PROCESSOR_GRID
        assert figure.metric == "total_useful_work"

    def test_fig4b(self):
        figure = figures.run_figure("fig4b", preset="quick", seed=1)
        assert len(figure.series) == 6
        for label in figure.series:
            assert figure.x_values(label) == INTERVALS

    def test_fig4c(self):
        figure = figures.run_figure("fig4c", preset="quick", seed=1)
        assert set(figure.series) == {
            "MTTR (mins) = 10",
            "MTTR (mins) = 20",
            "MTTR (mins) = 40",
            "MTTR (mins) = 80",
        }

    def test_fig4d(self):
        figure = figures.run_figure("fig4d", preset="quick", seed=1)
        for label in figure.series:
            assert figure.x_values(label) == INTERVALS

    def test_fig4e(self):
        figure = figures.run_figure("fig4e", preset="quick", seed=1)
        assert len(figure.series) == 5
        for label in figure.series:
            assert figure.x_values(label) == PROCESSOR_GRID

    def test_fig4f(self):
        figure = figures.run_figure("fig4f", preset="quick", seed=1)
        assert set(figure.series) == {
            f"MTTF per node (yrs) = {y}" for y in (1, 2, 4, 8, 16)
        }

    def test_fig4g_nodes_axis(self):
        figure = figures.run_figure("fig4g", preset="quick", seed=1)
        for label in figure.series:
            assert figure.x_values(label) == [8192.0, 16384.0, 32768.0]
        assert figure.x_label == "number of nodes"

    def test_fig4h_nodes_axis(self):
        figure = figures.run_figure("fig4h", preset="quick", seed=1)
        for label in figure.series:
            assert figure.x_values(label) == [
                8192.0, 16384.0, 32768.0, 65536.0,
            ]


class TestCoordinationFigures:
    def test_fig5_grid_and_notes(self):
        figure = figures.run_figure("fig5", preset="quick", seed=1)
        assert set(figure.series) == {"MTTQ=10s", "MTTQ=2s", "MTTQ=0.5s"}
        xs = figure.x_values("MTTQ=10s")
        assert xs[0] == 1.0
        assert xs[-1] == float(4**15)
        # One analytic curve per MTTQ; the micro plan runs a single
        # replication, so the unvalidated-intervals note rides along.
        analytic = [n for n in figure.notes if not n.startswith("UNVALIDATED")]
        assert len(analytic) == 3
        assert figure.unvalidated_intervals is True
        assert figure.metric == "useful_work_fraction"

    def test_fig6_series(self):
        figure = figures.run_figure("fig6", preset="quick", seed=1)
        assert set(figure.series) == {
            "no coordination",
            "no timeout",
            "timeout=120s",
            "timeout=100s",
            "timeout=80s",
            "timeout=60s",
            "timeout=40s",
            "timeout=20s",
        }


class TestCorrelatedFigures:
    def test_fig7_grid(self):
        figure = figures.run_figure("fig7", preset="quick", seed=1)
        assert set(figure.series) == {
            "frate_correlated_times=400",
            "frate_correlated_times=800",
            "frate_correlated_times=1600",
        }
        for label in figure.series:
            assert figure.x_values(label) == [0.0, 0.05, 0.1, 0.15, 0.2]

    def test_fig8_series(self):
        figure = figures.run_figure("fig8", preset="quick", seed=1)
        assert set(figure.series) == {
            "without correlated failure",
            "with correlated failure",
        }


class TestClosedFormFigures:
    def test_fig3_is_instant(self):
        figure = figures.run_figure("fig3", preset="quick", seed=1)
        assert "P(F_i)" in figure.series
        assert len(figure.notes) == 3

    def test_every_runner_produces_nonempty_series(self):
        # fig3 and section7.1 are covered elsewhere; the remaining
        # figures must at minimum produce non-empty series dicts.
        for figure_id in ("fig4a", "fig5", "fig7", "fig8"):
            figure = figures.run_figure(figure_id, preset="quick", seed=2)
            assert figure.series
            assert figure.figure_id == figure_id
