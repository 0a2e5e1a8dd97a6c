"""Tests for the experiment harness: configs, runner, report,
validation, CLI plumbing."""

import io

import pytest

from repro.core import HOUR, ModelParameters, SimulationPlan
from repro.experiments import (
    FIGURE_SPECS,
    PRESETS,
    FigureResult,
    SweepPoint,
    base_parameters,
    plan_for,
    render_figure,
    render_table3,
    run_sweep,
    validate_figure,
)
from repro.experiments.cli import build_parser, main
from repro.experiments.report import write_markdown_section
from repro.experiments.validation import (
    ShapeCheck,
    flat_then_falling,
    has_interior_maximum,
    is_monotone_decreasing,
    peak_shifts_left,
    relative_drop,
)

TINY = SimulationPlan(warmup=2 * HOUR, observation=20 * HOUR, replications=1)


class TestConfig:
    def test_presets_exist(self):
        assert {"quick", "standard", "full"} <= set(PRESETS)

    def test_plan_for(self):
        assert plan_for("quick").replications == 2
        with pytest.raises(ValueError):
            plan_for("nope")

    def test_base_parameters_match_paper(self):
        params = base_parameters()
        assert params.n_processors == 65536
        assert params.timeout is None

    def test_every_runner_listed(self, capsys):
        # `list` prints the parameter table's command, then every spec.
        assert main(["list"]) == 0
        listed = capsys.readouterr().out.split()
        assert listed == ["table3", *FIGURE_SPECS]


class TestRunner:
    def make_points(self):
        base = ModelParameters(n_processors=8192)
        return [
            SweepPoint("s", 1.0, base),
            SweepPoint("s", 2.0, base.with_overrides(n_processors=16384)),
        ]

    def test_run_sweep_structure(self):
        figure = run_sweep(
            "t", "title", "x", "useful_work_fraction", self.make_points(), TINY, seed=1
        )
        assert list(figure.series) == ["s"]
        assert figure.x_values("s") == [1.0, 2.0]
        assert all(0 < y <= 1 for y in figure.y_values("s"))

    def test_total_useful_work_scales_by_point(self):
        figure = run_sweep(
            "t", "title", "x", "total_useful_work", self.make_points(), TINY, seed=1
        )
        ys = figure.y_values("s")
        assert ys[0] > 1000  # fractions scaled by processor counts
        assert ys[1] > ys[0]  # twice the processors, low failure impact

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            run_sweep("t", "t", "x", "bogus", self.make_points(), TINY)

    def test_progress_callback(self):
        calls = []
        run_sweep(
            "t", "t", "x", "useful_work_fraction", self.make_points(), TINY,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(1, 2), (2, 2)]

    def test_peak_x(self):
        figure = FigureResult("f", "t", "x", "total_useful_work")
        figure.series["a"] = [(1.0, 5.0, 0.0), (2.0, 9.0, 0.0), (3.0, 4.0, 0.0)]
        assert figure.peak_x("a") == 2.0


class TestReport:
    def figure(self):
        figure = FigureResult("f", "A title", "x", "useful_work_fraction")
        figure.series["curve"] = [(1.0, 0.5, 0.01), (2.0, 0.4, 0.02)]
        figure.notes.append("hello note")
        return figure

    def test_render_contains_values(self):
        text = render_figure(self.figure())
        assert "A title" in text
        assert "0.5000" in text
        assert "hello note" in text

    def test_render_table3(self):
        text = render_table3()
        assert "256 MB" in text
        assert "46.8" in text  # derived dump time
        assert "350 MB/s" in text

    def test_markdown_section(self):
        stream = io.StringIO()
        write_markdown_section(self.figure(), stream)
        text = stream.getvalue()
        assert text.startswith("### f: A title")
        assert "```" in text


class TestValidation:
    def test_interior_maximum(self):
        check = has_interior_maximum([1, 2, 3], [1.0, 5.0, 2.0], "peak")
        assert check.passed
        edge = has_interior_maximum([1, 2, 3], [5.0, 4.0, 2.0], "peak")
        assert not edge.passed

    def test_monotone_decreasing(self):
        assert is_monotone_decreasing([1, 2, 3], [3.0, 2.0, 1.0], "m").passed
        assert not is_monotone_decreasing([1, 2, 3], [3.0, 4.0, 1.0], "m").passed
        assert is_monotone_decreasing(
            [1, 2, 3], [3.0, 3.1, 1.0], "m", tolerance=0.05
        ).passed

    def test_relative_drop(self):
        assert relative_drop(10.0, 5.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            relative_drop(0.0, 1.0)

    def test_flat_then_falling(self):
        xs = [15, 30, 60, 120]
        good = flat_then_falling(xs, [100.0, 98.0, 70.0, 40.0], "ok", knee=30)
        assert good.passed
        bad = flat_then_falling(xs, [100.0, 60.0, 50.0, 40.0], "bad", knee=30)
        assert not bad.passed

    def test_peak_shifts_left(self):
        figure = FigureResult("f", "t", "x", "total_useful_work")
        figure.series["strong"] = [(1, 1.0, 0), (2, 3.0, 0), (3, 2.0, 0)]
        figure.series["weak"] = [(1, 3.0, 0), (2, 2.0, 0), (3, 1.0, 0)]
        check = peak_shifts_left(figure, ["strong", "weak"], "shift")
        assert check.passed

    def test_validate_figure_dispatch(self):
        figure = FigureResult("fig4a", "t", "x", "total_useful_work")
        figure.series["MTTF=1"] = [(1, 1.0, 0), (2, 3.0, 0), (3, 2.0, 0)]
        checks = validate_figure(figure)
        assert len(checks) == 1 and checks[0].passed

    def test_shape_check_str(self):
        text = str(ShapeCheck("name", True, "detail"))
        assert "PASS" in text and "name" in text


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["run-figure", "fig4a", "--preset", "quick"])
        assert args.figure == "fig4a"
        assert args.preset == "quick"

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4a" in out and "fig8" in out

    def test_table3_command(self, capsys):
        assert main(["table3"]) == 0
        assert "Checkpoint interval" in capsys.readouterr().out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-figure", "bogus"])


class TestNewCLICommands:
    def test_design_command(self, capsys):
        assert main(["design", "--mttf-years", "1"]) == 0
        out = capsys.readouterr().out
        assert "predicted TUW" in out
        assert "131072" in out

    def test_completion_command(self, capsys):
        assert (
            main(
                [
                    "completion",
                    "--work-hours", "2",
                    "--processors", "8192",
                    "--replications", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mean completion" in out
        assert "stretch" in out


class TestBackendsCommand:
    def test_backends_listed(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for backend_id in ("san-sim", "san-sim-full", "ctmc", "cluster",
                           "analytical"):
            assert backend_id in out
        assert "useful_work_fraction" in out
        assert "max nodes" in out  # the cluster backend's ceiling

    def test_backend_option_parsed(self):
        parser = build_parser()
        args = parser.parse_args(
            ["run-figure", "fig4a", "--preset", "quick",
             "--backend", "analytical"]
        )
        assert args.backend == "analytical"

    def test_unknown_backend_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run-figure", "fig4a", "--backend", "moebius"]
            )

    def test_run_figure_with_analytical_backend(self, capsys):
        code = main(
            ["run-figure", "fig4a", "--preset", "quick",
             "--backend", "analytical", "--no-validate"]
        )
        assert code == 0
        assert "Useful work vs number of processors" in capsys.readouterr().out

    def test_incapable_backend_fails_with_clear_error(self, capsys):
        # fig6's timeout-abort points are outside the analytical closed
        # form; the CLI must exit 2 with the reason, not crash.
        code = main(
            ["run-figure", "fig6", "--preset", "quick",
             "--backend", "analytical", "--no-validate"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "analytical" in err


class TestRunnerBackendSelection:
    def make_points(self):
        base = ModelParameters(n_processors=8192)
        return [SweepPoint("s", 1.0, base)]

    def test_unknown_backend(self):
        from repro.backends import UnknownBackendError

        with pytest.raises(UnknownBackendError):
            run_sweep(
                "t", "t", "x", "useful_work_fraction", self.make_points(),
                TINY, backend="moebius",
            )

    def test_metric_capability_checked_up_front(self):
        from repro.backends import (
            BackendCapabilities,
            UnsupportedMetricError,
            register,
            unregister,
        )
        from repro.backends.base import BaseBackend

        class CoordOnly(BaseBackend):
            """Test backend producing only coordination time."""

            id = "coord-only-test"
            capabilities = BackendCapabilities(
                metrics=frozenset({"mean_coordination_time"}),
                description="test",
            )

        register(CoordOnly())
        try:
            with pytest.raises(UnsupportedMetricError, match="backends that can"):
                run_sweep(
                    "t", "t", "x", "useful_work_fraction", self.make_points(),
                    TINY, backend="coord-only-test",
                )
        finally:
            unregister("coord-only-test")

    def test_unsupported_point_named_up_front(self):
        from repro.backends import UnsupportedParametersError

        points = [
            SweepPoint(
                "s", 1.0,
                ModelParameters(n_processors=8192, timeout=70.0),
            )
        ]
        with pytest.raises(UnsupportedParametersError, match="x=1"):
            run_sweep(
                "t", "t", "x", "useful_work_fraction", points, TINY,
                backend="ctmc",
            )


class TestRunnerParallel:
    def test_multiprocessing_path_matches_serial(self):
        base = ModelParameters(n_processors=8192)
        points = [
            SweepPoint("s", 1.0, base),
            SweepPoint("s", 2.0, base.with_overrides(n_processors=16384)),
        ]
        serial = run_sweep(
            "t", "t", "x", "useful_work_fraction", points, TINY, seed=3
        )
        parallel = run_sweep(
            "t", "t", "x", "useful_work_fraction", points, TINY, seed=3,
            processes=2,
        )
        assert serial.series == parallel.series


class TestSensitivityAndDotCommands:
    def test_sensitivity_command(self, capsys):
        assert main(["sensitivity", "--processors", "262144"]) == 0
        out = capsys.readouterr().out
        assert "elasticity" in out
        assert "mtbf" in out

    def test_dot_command(self, capsys):
        assert main(["dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert '"a:comp_failure"' in out

    def test_dot_no_clusters(self, capsys):
        assert main(["dot", "--no-clusters"]) == 0
        assert "subgraph" not in capsys.readouterr().out
