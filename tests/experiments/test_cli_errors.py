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
        payload = json.loads(open(path, encoding="utf-8").read())
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
        def exploding_runner(**kwargs):
            raise BackendError("synthetic backend failure")

        monkeypatch.setitem(cli.FIGURE_RUNNERS, "fig4a", exploding_runner)
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

    def test_kernel_override_on_custom_figure_exits_2(self, capsys):
        rc = cli.main(["run-figure", "fig3", "--kernel", "batched"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "kernel override" in captured.err

    def test_kernel_and_batch_size_forwarded_to_runner(self, monkeypatch):
        seen = {}

        def capturing_runner(**kwargs):
            seen.update(kwargs)
            raise BackendError("stop after capture")

        monkeypatch.setitem(cli.FIGURE_RUNNERS, "fig4a", capturing_runner)
        rc = cli.main(
            ["run-figure", "fig4a", "--preset", "quick",
             "--kernel", "batched", "--batch-size", "16"]
        )
        assert rc == 2
        assert seen["kernel"] == "batched"
        assert seen["batch_size"] == 16

    def test_unknown_kernel_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run-figure", "fig4a", "--kernel", "warp"])
        assert excinfo.value.code == 2

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

    def test_executor_options_forwarded_to_runner(self, monkeypatch):
        seen = {}

        def capturing_runner(**kwargs):
            seen.update(kwargs)
            raise BackendError("stop after capture")

        monkeypatch.setitem(cli.FIGURE_RUNNERS, "fig4a", capturing_runner)
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

        def capturing_runner(**kwargs):
            seen.update(kwargs)
            raise BackendError("stop after capture")

        monkeypatch.setitem(cli.FIGURE_RUNNERS, "fig4a", capturing_runner)
        rc = cli.main(
            ["run-figure", "fig4a", "--preset", "quick", "--retries", "3",
             "--degrade-to", "san-sim-full", "--degrade-to", "analytical"]
        )
        assert rc == 2
        options = seen["resilience"]
        assert options.degrade_to == ("san-sim-full", "analytical")
        assert options.retry.max_retries == 3

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


#: Options deleted with the backend resilience wrapper and the circuit
#: breaker: each is now a usage error (argparse exits 2).
REMOVED_OPTIONS = [
    [*command, flag, value]
    for command in (("run-figure", "fig4a"), ("run-all",), ("claims",))
    for flag, value in (
        ("--backend-deadline", "30"),
        ("--backend-retries", "2"),
        ("--backend-isolation", "process"),
        ("--breaker-state-dir", "health"),
    )
] + [
    ["backends", "--state-dir", "health"],
    ["chaos", "fig4a", "--state-dir", "health"],
    ["chaos", "fig4a", "--queue-dir", "q"],
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
    ("--wall-clock-budget", ["run-figure", "fig4a", "--max-points", "1",
                             "--no-validate", "--wall-clock-budget", "nan"]),
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
    monkeypatch.setitem(cli.FIGURE_RUNNERS, "fig4a", _never_reached)
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

    float_options = [
        action for action in actions(cli.build_parser())
        if action.type in (float, cli.finite_float)
    ]
    # 29 options in cli.py, some of them on several commands.
    assert len(float_options) >= 29
    assert all(action.type is cli.finite_float for action in float_options)
    assert cli.finite_float("1e-3") == 0.001
    for text in ("nan", "inf", "-inf", "NaN", "Infinity"):
        with pytest.raises(argparse.ArgumentTypeError, match="finite"):
            cli.finite_float(text)
