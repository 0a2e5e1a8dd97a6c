"""Error-path coverage for the CLI and the versioned loaders.

The happy paths are covered by the figure/harness tests; these tests
pin the *failure* contracts: foreign-schema artefacts are rejected
with named errors (never misread), and the CLI maps operational
errors to exit code 2, validation failures to 1, usage errors to the
argparse SystemExit.
"""

import argparse
import json

import pytest

from repro.backends import (
    BackendError,
    EvaluationResult,
    SCHEMA_VERSION,
    SchemaMismatchError,
)
from repro.experiments import cli
from repro.experiments.archive import (
    FIGURE_SCHEMA_VERSION,
    load_figure,
    save_figure,
)
from repro.experiments.report import FigureResult
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    ManifestError,
    RunManifest,
    load_manifest,
    write_manifest,
)


def _write_manifest_payload(tmp_path, payload, name="figX.manifest.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestManifestErrors:
    def test_foreign_schema_raises_manifest_error(self, tmp_path):
        path = _write_manifest_payload(
            tmp_path,
            {"schema_version": MANIFEST_SCHEMA_VERSION + 1, "figure_id": "f"},
        )
        with pytest.raises(ManifestError, match="schema version"):
            load_manifest(path)

    def test_error_names_the_path(self, tmp_path):
        path = _write_manifest_payload(tmp_path, {"schema_version": 99})
        with pytest.raises(ManifestError, match="figX.manifest.json"):
            load_manifest(path)

    def test_missing_figure_id_rejected(self, tmp_path):
        path = _write_manifest_payload(
            tmp_path, {"schema_version": MANIFEST_SCHEMA_VERSION}
        )
        with pytest.raises(ManifestError, match="figure_id"):
            load_manifest(path)

    def test_non_object_payload_rejected(self, tmp_path):
        path = _write_manifest_payload(tmp_path, ["not", "an", "object"])
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_obs_command_reports_foreign_schema_with_exit_1(
        self, tmp_path, capsys
    ):
        path = _write_manifest_payload(
            tmp_path, {"schema_version": 99, "figure_id": "f"}
        )
        rc = cli.main(["obs", path])
        captured = capsys.readouterr()
        assert rc == 1
        assert "schema version" in captured.err + captured.out

    def test_validation_summary_round_trips(self, tmp_path):
        manifest = RunManifest(
            figure_id="figV",
            validation={"passed": True, "seed": 0,
                        "differential": {"cases": 4, "disagreements": 0}},
        )
        write_manifest(manifest, str(tmp_path))
        loaded = load_manifest(str(tmp_path / "figV.manifest.json"))
        assert loaded.validation == manifest.validation


class TestArchiveSchemaErrors:
    def _vnext_archive(self, tmp_path):
        figure = FigureResult(
            figure_id="figZ", title="t", x_label="x", metric="m"
        )
        figure.series["s"] = [(1.0, 0.5, 0.0)]
        path = save_figure(figure, str(tmp_path))
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["schema_version"] = FIGURE_SCHEMA_VERSION + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return path

    def test_vnext_archive_rejected_loudly(self, tmp_path):
        path = self._vnext_archive(tmp_path)
        with pytest.raises(ValueError, match="newer repro release"):
            load_figure(path)

    def test_vnext_evaluation_result_raises_schema_mismatch(self):
        result = EvaluationResult(backend="ctmc")
        payload = result.to_json_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaMismatchError, match="schema version"):
            EvaluationResult.from_json_dict(payload)

    def test_non_json_evaluation_result_raises_schema_mismatch(self):
        with pytest.raises(SchemaMismatchError, match="not valid JSON"):
            EvaluationResult.from_json("{not json")


class TestExitCodeMapping:
    def test_backend_error_maps_to_exit_2(self, monkeypatch, capsys):
        def exploding_runner(figure_id, **kwargs):
            raise BackendError("synthetic backend failure")

        monkeypatch.setattr(cli, "run_figure", exploding_runner)
        rc = cli.main(["run-figure", "fig4a", "--preset", "quick"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "synthetic backend failure" in captured.err

    def test_validate_backend_error_maps_to_exit_2(self, monkeypatch, capsys):
        import repro.validate.report as validate_report

        def exploding_suite(**kwargs):
            raise BackendError("validation backend failure")

        monkeypatch.setattr(
            validate_report, "run_full_suite", exploding_suite
        )
        import repro.validate

        monkeypatch.setattr(
            repro.validate, "run_full_suite", exploding_suite
        )
        rc = cli.main(["validate", "--skip-gof", "--skip-metamorphic"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "validation backend failure" in captured.err

    def test_unknown_kernel_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run-figure", "fig4a", "--kernel", "warp"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--backend", "san-sim-batched"),
    ])
    def test_removed_batched_choice_is_a_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run-figure", "fig4a", "--preset", "quick", flag, value])
        assert excinfo.value.code == 2
        assert (
            f"argument {flag}: invalid choice: '{value}'"
            in capsys.readouterr().err
        )

    def test_validate_unknown_case_exits_2(self, capsys):
        rc = cli.main(["validate", "--cases", "no-such-case", "--list"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "unknown case" in captured.err

    def test_validate_record_and_check_are_exclusive(self, capsys):
        rc = cli.main(["validate", "--record", "--check"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "mutually exclusive" in captured.err

    def test_validate_missing_baseline_exits_2(self, tmp_path, capsys):
        rc = cli.main(
            ["validate", "--check", "--baselines", str(tmp_path / "nowhere")]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "no baseline" in captured.err

    def test_queue_executor_without_dir_exits_2(self, capsys):
        rc = cli.main(
            ["run-figure", "fig4a", "--preset", "quick", "--executor", "queue"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "--queue-dir" in captured.err

    def test_unknown_executor_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run-figure", "fig4a", "--executor", "abacus"])
        assert excinfo.value.code == 2

    def test_executor_override_on_custom_figure_exits_2(self, capsys):
        rc = cli.main(["run-figure", "fig3", "--executor", "serial"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "executor override" in captured.err

    def test_max_points_on_custom_figure_exits_2_naming_it(self, capsys):
        # run-all drops it for custom figures; run-figure refuses it,
        # naming the argument that was passed.
        rc = cli.main(["run-figure", "fig3", "--max-points", "2"])
        assert rc == 2
        assert "takes no max_points override" in capsys.readouterr().err

    def test_executor_options_forwarded_to_runner(self, monkeypatch):
        seen = {}

        def capturing_runner(figure_id, **kwargs):
            seen.update(kwargs)
            raise BackendError("stop after capture")

        monkeypatch.setattr(cli, "run_figure", capturing_runner)
        rc = cli.main(
            ["run-figure", "fig4a", "--preset", "quick",
             "--executor", "queue", "--queue-dir", "q", "--max-points", "4"]
        )
        assert rc == 2
        assert seen["executor"] == "queue"
        assert seen["queue_dir"] == "q"
        assert seen["max_points"] == 4

    def test_degrade_to_forwarded_in_order(self, monkeypatch):
        seen = {}

        def capturing_runner(figure_id, **kwargs):
            seen.update(kwargs)
            raise BackendError("stop after capture")

        monkeypatch.setattr(cli, "run_figure", capturing_runner)
        rc = cli.main(
            ["run-figure", "fig4a", "--preset", "quick", "--retries", "3",
             "--degrade-to", "san-sim-full", "--degrade-to", "analytical"]
        )
        assert rc == 2
        options = seen["resilience"]
        assert options.degrade_to == ("san-sim-full", "analytical")
        assert options.retry.max_retries == 3

    @pytest.mark.parametrize("flag", ["--kernel-stats", "--trace-out"])
    @pytest.mark.parametrize(
        "extra, ignored",
        [(["--processes", "2"], "--processes"),
         (["--executor", "pool"], "--executor pool")],
        ids=["processes", "executor-pool"],
    )
    def test_stats_and_trace_force_a_serial_sweep(
        self, flag, extra, ignored, monkeypatch, capsys, tmp_path
    ):
        # Worker processes report no kernel stats and do not share the
        # trace sink, so whichever flag asked for the pool, the runner
        # must get a serial sweep, and the CLI says what it ignored.
        seen = {}

        def capturing_runner(figure_id, **kwargs):
            seen.update(kwargs)
            raise BackendError("stop after capture")

        monkeypatch.setattr(cli, "run_figure", capturing_runner)
        argv = ["run-figure", "fig4a", "--preset", "quick", *extra, flag]
        if flag == "--trace-out":
            argv.append(str(tmp_path / "trace.jsonl"))
        assert cli.main(argv) == 2
        assert seen["processes"] is None
        assert seen["executor"] in (None, "serial")
        assert (
            f"{flag} forces a serial sweep (ignoring {ignored})"
            in capsys.readouterr().out
        )

    def test_chaos_rejects_pool_executor_by_argparse(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["chaos", "fig4a", "--executor", "pool"])
        assert excinfo.value.code == 2

    def test_unknown_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["no-such-command"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2


#: Options deleted with the backend resilience wrapper, the circuit
#: breaker, the batched kernel, the second deadline flag (the
#: deadline is ``--point-timeout``), the plan's kernel selector
#: (``--backend san-sim-full`` runs the full kernel), the chaos
#: drill's private effort scale (the preset is the one effort setting)
#: and its slow fault kind: each is now a usage error (argparse exits
#: 2). ``--kernel`` is not read as an abbreviation of
#: ``--kernel-stats``.
REMOVED_OPTIONS = [
    [*command, flag, value]
    for command in (("run-figure", "fig4a"), ("run-all",), ("claims",))
    for flag, value in (
        ("--backend-deadline", "30"),
        ("--backend-retries", "2"),
        ("--backend-isolation", "process"),
        ("--breaker-state-dir", "health"),
        ("--batch-size", "16"),
        ("--wall-clock-budget", "30"),
        ("--kernel", "full"),
    )
] + [
    ["backends", "--state-dir", "health"],
    ["chaos", "fig4a", "--state-dir", "health"],
    ["chaos", "fig4a", "--queue-dir", "q"],
    ["chaos", "fig4a", "--scale", "0.05"],
    ["chaos", "fig4a", "--slow", "0.5"],
    ["chaos", "fig4a", "--slow-seconds", "1"],
    ["worker", "--queue-dir", "q", "--backend-deadline", "30"],
    ["worker", "--queue-dir", "q", "--backend-retries", "2"],
    ["worker", "--queue-dir", "q", "--degrade-to", "analytical"],
]


@pytest.mark.parametrize(
    "argv", REMOVED_OPTIONS, ids=[" ".join(a) for a in REMOVED_OPTIONS]
)
def test_removed_option_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def _never_reached(*args, **kwargs):
    raise AssertionError("a non-finite flag value reached the command")


#: Commands that accepted ``nan`` before, with the flag carrying it:
#: ``design`` printed eight designs at predicted UWF 1.000,
#: ``completion`` never finished, and ``run-figure`` ran with a
#: wall-clock budget that never trips.
NON_FINITE_ARGV = [
    ("--mttf-years", ["design", "--mttf-years", "nan"]),
    ("--mttf-years", ["completion", "--mttf-years", "nan",
                      "--work-hours", "1", "--replications", "2"]),
    ("--point-timeout", ["run-figure", "fig4a", "--max-points", "1",
                         "--no-validate", "--point-timeout", "nan"]),
]


@pytest.mark.parametrize(
    "flag, argv", NON_FINITE_ARGV,
    ids=[argv[0] for _, argv in NON_FINITE_ARGV],
)
def test_non_finite_float_flag_is_a_usage_error(flag, argv, monkeypatch,
                                                capsys):
    import repro.analytical.design
    import repro.core

    # Should parsing let the value through, fail fast instead of
    # running (the completion study would never finish).
    monkeypatch.setattr(repro.analytical.design, "explore", _never_reached)
    monkeypatch.setattr(repro.core, "completion_study", _never_reached)
    monkeypatch.setattr(cli, "run_figure", _never_reached)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert f"argument {flag}: must be a finite number" in (
        capsys.readouterr().err
    )


def test_every_float_option_rejects_non_finite_values():
    def actions(parser):
        for action in parser._actions:
            yield action
            if isinstance(action.choices, dict):  # a subcommand table
                for subparser in action.choices.values():
                    yield from actions(subparser)

    checked = (cli.finite_float, cli.positive_float, cli.non_negative_float,
               cli.fraction)
    float_options = [
        action for action in actions(cli.build_parser())
        if action.type is float or action.type in checked
    ]
    # 23 options in cli.py, 27 once those shared by run-figure,
    # run-all and claims are counted on each command (the job
    # command's two went with it, and chaos's --scale, --slow and
    # --slow-seconds went with the drill's own effort scale and its
    # slow faults).
    assert len(float_options) >= 27
    assert all(action.type in checked for action in float_options)
    assert cli.finite_float("1e-3") == 0.001
    for parse in checked:
        for text in ("nan", "inf", "-inf", "NaN", "Infinity"):
            with pytest.raises(argparse.ArgumentTypeError, match="finite"):
                parse(text)


#: Worker flags whose bad values used to start the worker: a negative
#: poll crashed on the first empty poll, a negative timeout stranded
#: the first claim in inflight/, a non-positive task cap exited
#: having claimed nothing, and a negative orphan age silently turned
#: off the janitor and the heartbeat.
BAD_WORKER_VALUES = [
    ("--poll-interval", "-1"),
    ("--idle-exit", "-1"),
    ("--orphan-age", "-5"),
    ("--point-timeout", "-5"),
    ("--point-timeout", "0"),
    ("--max-tasks", "0"),
    ("--max-tasks", "-3"),
]


@pytest.fixture
def quiet_worker(monkeypatch):
    """Keep a worker started in-process off this process's signals."""
    from repro.service import ServiceWorker

    monkeypatch.setattr(
        ServiceWorker, "install_signal_handlers", lambda self: None
    )


@pytest.mark.parametrize(
    "flag, value", BAD_WORKER_VALUES,
    ids=[f"{flag}={value}" for flag, value in BAD_WORKER_VALUES],
)
def test_worker_rejects_bad_numbers_before_it_starts(
    flag, value, tmp_path, quiet_worker, capsys
):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["worker", "--queue-dir", str(tmp_path),
                  "--idle-exit", "0", flag, value])
    assert excinfo.value.code == 2
    assert f"argument {flag}: must be" in capsys.readouterr().err


def test_worker_zero_orphan_age_and_idle_exit_stay_valid(
    tmp_path, quiet_worker
):
    assert cli.main(["worker", "--queue-dir", str(tmp_path),
                     "--idle-exit", "0", "--orphan-age", "0"]) == 0


#: Run-option values that used to run: no points at all, a slice from
#: the end, a traceback, or a silent serial run.
BAD_RUN_VALUES = [
    ("--max-points", "0"),
    ("--max-points", "-1"),
    ("--processes", "-1"),
    ("--processes", "0"),
    ("--retries", "-2"),
    ("--point-timeout", "-5"),
    ("--point-timeout", "0"),
    ("--trace-sample", "-1"),
    ("--trace-sample", "0"),
    ("--trace-max-events", "0"),
]


@pytest.mark.parametrize("command", [["run-figure", "fig4a"], ["run-all"]],
                         ids=["run-figure", "run-all"])
@pytest.mark.parametrize(
    "flag, value", BAD_RUN_VALUES,
    ids=[f"{flag}={value}" for flag, value in BAD_RUN_VALUES],
)
def test_run_options_reject_bad_numbers(command, flag, value, monkeypatch,
                                        capsys):
    seen = {}

    def capturing_runner(figure_id, **kwargs):
        seen.update(kwargs)
        raise BackendError("stop after capture")

    monkeypatch.setattr(cli, "run_figure", capturing_runner)
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*command, "--preset", "quick", flag, value])
    assert excinfo.value.code == 2
    assert seen == {}
    assert f"argument {flag}: must be" in capsys.readouterr().err


def test_run_figure_rejects_an_empty_slice():
    from repro.experiments.figures import run_figure

    with pytest.raises(ValueError, match="max_points must be >= 1, got 0"):
        run_figure("fig4a", preset="quick", max_points=0)


#: Out-of-range counts, durations and fractions, the bad value last.
#: Those of the analytic and study commands ended in a traceback (exit
#: 1); those of chaos, compare and cache exited 2 naming an internal
#: field (``wall_clock_budget``, ``max_retries``, ``crash_fraction``,
#: ``max_points``, ``rel_tolerance``, ``max_bytes``), or ran:
#: ``chaos --hang-seconds -5`` printed RECOVERED after every injected
#: hang raised instead of sleeping. Each flag now has the bound its
#: constructor checks, so the value is a usage error naming the flag.
BAD_COMMAND_VALUES = [
    ["design", "--mttf-years", "-1"],
    ["design", "--mttr-minutes", "-1"],
    ["design", "--processors-per-node", "0"],
    ["design", "--overhead-seconds", "-1"],
    ["sensitivity", "--processors", "0"],
    ["sensitivity", "--processors-per-node", "0"],
    ["sensitivity", "--mttf-years", "0"],
    ["sensitivity", "--mttr-minutes", "-1"],
    ["sensitivity", "--interval-minutes", "0"],
    ["sensitivity", "--overhead-seconds", "-1"],
    ["completion", "--work-hours", "0"],
    ["completion", "--processors", "0"],
    ["completion", "--mttf-years", "0"],
    ["completion", "--replications", "0"],
    ["validate", "--scale", "0"],
    ["chaos", "fig4a", "--deadline", "-1"],
    ["chaos", "fig4a", "--deadline", "0"],
    ["chaos", "fig4a", "--hang-seconds", "-5"],
    ["chaos", "fig4a", "--hang-seconds", "0"],
    ["chaos", "fig4a", "--retries", "-1"],
    ["chaos", "fig4a", "--max-points", "0"],
    ["chaos", "fig4a", "--crash", "2"],
    ["chaos", "fig4a", "--hang", "-0.1"],
    ["chaos", "fig4a", "--corrupt", "1.5"],
    ["chaos", "fig4a", "--tolerance", "-1"],
    ["compare", "a", "b", "--tolerance", "-1"],
    ["cache", "prune", "--cache-dir", "c", "--max-bytes", "-1"],
]


@pytest.mark.parametrize(
    "argv", BAD_COMMAND_VALUES, ids=[" ".join(a) for a in BAD_COMMAND_VALUES]
)
def test_command_options_reject_bad_numbers(argv, monkeypatch, capsys):
    import repro.analytical.design
    import repro.core
    import repro.experiments.chaos

    # Should parsing let the value through, fail fast instead of
    # running a design search, a completion study or a chaos drill.
    monkeypatch.setattr(repro.analytical.design, "explore", _never_reached)
    monkeypatch.setattr(repro.core, "completion_study", _never_reached)
    monkeypatch.setattr(repro.experiments.chaos, "run_chaos", _never_reached)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert f"argument {argv[-2]}: must be" in capsys.readouterr().err


def test_claims_from_a_missing_directory_is_a_usage_error(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "run_figure", _never_reached)
    missing = str(tmp_path / "nowhere")
    assert cli.main(["claims", "--from-json", missing, "--max-points", "1"]) == 2
    err = capsys.readouterr().err
    assert "argument --from-json" in err
    assert f"{missing!r} does not exist" in err


def test_claims_from_an_empty_directory_regenerates_its_figures(
    tmp_path, monkeypatch, capsys
):
    regenerated = []

    def recording_runner(figure_id, **kwargs):
        regenerated.append(figure_id)
        raise BackendError("stop after the first figure")

    monkeypatch.setattr(cli, "run_figure", recording_runner)
    assert cli.main(["claims", "--from-json", str(tmp_path),
                     "--max-points", "1"]) == 2
    assert len(regenerated) == 1
    assert "stop after the first figure" in capsys.readouterr().err


def test_completion_processors_off_the_node_size_is_a_usage_error(
    monkeypatch, capsys
):
    import repro.core

    monkeypatch.setattr(repro.core, "completion_study", _never_reached)
    assert cli.main(["completion", "--processors", "7", "--work-hours", "1",
                     "--replications", "1"]) == 2
    err = capsys.readouterr().err
    assert "argument --processors" in err
    assert "must be a multiple of processors_per_node (8)" in err


#: Abbreviated options, each now an unrecognized argument. All but the
#: run option used to run as the full option: ``design --processors 7``
#: ran with ``--processors-per-node 7``.
ABBREVIATED_OPTIONS = [
    ["design", "--processors", "7"],
    ["completion", "--work", "1"],
    ["sensitivity", "--interval", "30"],
    ["worker", "--queue-dir", "q", "--max", "1"],
    ["obs", "out", "--js"],
    ["validate", "--skip-g"],
    ["chaos", "fig4a", "--hang-s", "5"],
    ["run-figure", "fig4a", "--pres", "quick"],
]


@pytest.mark.parametrize(
    "argv", ABBREVIATED_OPTIONS, ids=[" ".join(a) for a in ABBREVIATED_OPTIONS]
)
def test_abbreviated_option_is_a_usage_error(argv, monkeypatch, capsys):
    import repro.analytical.design

    monkeypatch.setattr(repro.analytical.design, "explore", _never_reached)
    monkeypatch.setattr(cli, "run_figure", _never_reached)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    flag = next(a for a in reversed(argv) if a.startswith("--"))
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_every_parser_takes_options_spelled_in_full():
    def parsers(parser):
        yield parser
        for action in parser._actions:
            if isinstance(action.choices, dict):  # a subcommand table
                for subparser in action.choices.values():
                    yield from parsers(subparser)

    every = list(parsers(cli.build_parser()))
    assert len(every) >= 18
    assert not [parser.prog for parser in every if parser.allow_abbrev]
