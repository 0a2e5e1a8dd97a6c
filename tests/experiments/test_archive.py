"""Tests for result archival and regression comparison."""

import os

import pytest

from repro.experiments import (
    Discrepancy,
    FigureResult,
    compare_archives,
    compare_figures,
    load_archive,
    load_figure,
    save_figure,
)


def make_figure(figure_id="figX", y=0.5, half=0.02):
    figure = FigureResult(figure_id, "Title", "x", "useful_work_fraction")
    figure.series["curve"] = [(1.0, y, half), (2.0, y / 2, half)]
    figure.notes.append("a note")
    return figure


def save_all(figures, directory):
    for figure in figures:
        save_figure(figure, directory)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        figure = make_figure()
        path = save_figure(figure, str(tmp_path))
        assert os.path.basename(path) == "figX.json"
        loaded = load_figure(path)
        assert loaded.figure_id == figure.figure_id
        assert loaded.series == figure.series
        assert loaded.notes == figure.notes
        assert loaded.metric == figure.metric

    def test_archive_roundtrip(self, tmp_path):
        figures = [make_figure("a"), make_figure("b")]
        save_all(figures, str(tmp_path))
        loaded = load_archive(str(tmp_path))
        assert set(loaded) == {"a", "b"}

    def test_directory_created(self, tmp_path):
        target = tmp_path / "nested" / "dir"
        save_figure(make_figure(), str(target))
        assert target.exists()


class TestRobustness:
    def test_malformed_json_error_names_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"figure_id": "x", truncated')
        with pytest.raises(ValueError, match="malformed figure archive"):
            load_figure(str(path))
        with pytest.raises(ValueError, match="broken.json"):
            load_figure(str(path))

    def test_valid_json_wrong_structure_error_names_path(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text('{"figure_id": "x"}')  # missing title/series/...
        with pytest.raises(ValueError, match="malformed figure archive"):
            load_figure(str(path))

    def test_no_temporary_files_left_behind(self, tmp_path):
        save_figure(make_figure(), str(tmp_path))
        leftovers = [
            name for name in os.listdir(str(tmp_path))
            if name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_save_overwrites_atomically(self, tmp_path):
        save_figure(make_figure(y=0.5), str(tmp_path))
        save_figure(make_figure(y=0.9), str(tmp_path))
        loaded = load_figure(str(tmp_path / "figX.json"))
        assert loaded.series["curve"][0][1] == 0.9

    def test_failures_roundtrip(self, tmp_path):
        from repro.experiments import FailureReport

        figure = make_figure()
        figure.failures.append(
            FailureReport(
                series="curve", x=3.0, index=2, attempts=3,
                error_type="InjectedCrash", error_message="boom",
                traceback="Traceback ...",
            )
        )
        path = save_figure(figure, str(tmp_path))
        loaded = load_figure(path)
        assert len(loaded.failures) == 1
        report = loaded.failures[0]
        assert report.error_type == "InjectedCrash"
        assert report.x == 3.0
        assert report.attempts == 3


class TestCompareFigures:
    def test_identical_agree(self):
        assert compare_figures(make_figure(), make_figure()) == []

    def test_within_tolerance_agrees(self):
        reference = make_figure(y=0.50)
        candidate = make_figure(y=0.54)
        assert compare_figures(reference, candidate, rel_tolerance=0.10) == []

    def test_outside_tolerance_flagged(self):
        reference = make_figure(y=0.50, half=0.001)
        candidate = make_figure(y=0.70, half=0.001)
        discrepancies = compare_figures(reference, candidate, rel_tolerance=0.10)
        assert discrepancies
        assert all(d.kind == "value" for d in discrepancies)

    def test_overlapping_intervals_agree_despite_tolerance(self):
        reference = make_figure(y=0.50, half=0.15)
        candidate = make_figure(y=0.70, half=0.15)
        assert compare_figures(reference, candidate, rel_tolerance=0.01) == []

    def test_missing_series_flagged(self):
        reference = make_figure()
        candidate = make_figure()
        candidate.series = {}
        kinds = {d.kind for d in compare_figures(reference, candidate)}
        assert kinds == {"missing-series"}

    def test_missing_point_flagged(self):
        reference = make_figure()
        candidate = make_figure()
        candidate.series["curve"] = candidate.series["curve"][:1]
        kinds = {d.kind for d in compare_figures(reference, candidate)}
        assert kinds == {"missing-point"}

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            compare_figures(make_figure(), make_figure(), rel_tolerance=-0.1)


class TestSchemaVersioning:
    def test_saved_figures_are_stamped(self, tmp_path):
        import json

        from repro import __version__
        from repro.experiments import FIGURE_SCHEMA_VERSION

        figure = make_figure()
        figure.backend = "san-sim"
        path = save_figure(figure, str(tmp_path))
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["schema_version"] == FIGURE_SCHEMA_VERSION
        assert payload["repro_version"] == __version__
        assert payload["backend"] == "san-sim"
        assert load_figure(path).backend == "san-sim"

    def test_legacy_unstamped_archive_migrates(self, tmp_path):
        import json

        # A pre-versioning archive: no schema_version, no backend.
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps({
            "figure_id": "legacy",
            "title": "T",
            "x_label": "x",
            "metric": "useful_work_fraction",
            "series": {"curve": [[1.0, 0.5, 0.01]]},
            "notes": [],
            "failures": [],
        }))
        loaded = load_figure(str(path))
        assert loaded.backend is None
        assert loaded.series["curve"] == [(1.0, 0.5, 0.01)]
        assert any("migrated from archive schema version 1" in note
                   for note in loaded.notes)

    def test_future_schema_rejected(self, tmp_path):
        import json

        from repro.experiments import FIGURE_SCHEMA_VERSION

        path = tmp_path / "future.json"
        path.write_text(json.dumps({
            "schema_version": FIGURE_SCHEMA_VERSION + 1,
            "figure_id": "f", "title": "", "x_label": "", "metric": "m",
            "series": {},
        }))
        with pytest.raises(ValueError, match="newer repro release"):
            load_figure(str(path))

    def test_non_integer_schema_rejected(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text('{"schema_version": "two"}')
        with pytest.raises(ValueError, match="schema version"):
            load_figure(str(path))


class TestCompareArchives:
    def test_matching_archives(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        save_all([make_figure("one"), make_figure("two")], str(a))
        save_all([make_figure("one"), make_figure("two")], str(b))
        assert compare_archives(str(a), str(b)) == []

    def test_missing_figure_flagged(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        save_all([make_figure("one"), make_figure("two")], str(a))
        save_all([make_figure("one")], str(b))
        discrepancies = compare_archives(str(a), str(b))
        assert len(discrepancies) == 1
        assert "two" in str(discrepancies[0])

    def test_cli_compare(self, tmp_path, capsys):
        from repro.experiments.cli import main

        a, b = tmp_path / "a", tmp_path / "b"
        save_all([make_figure("one")], str(a))
        save_all([make_figure("one", y=0.9, half=0.001)], str(b))
        assert main(["compare", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "discrepanc" in out
        save_all([make_figure("one")], str(b))
        assert main(["compare", str(a), str(b)]) == 0

    @pytest.mark.parametrize("empty", ["reference", "candidate", "both"])
    def test_cli_compare_refuses_an_archive_with_no_figure(
        self, tmp_path, capsys, empty
    ):
        from repro.experiments.cli import main

        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        if empty == "reference":
            save_all([make_figure("one")], str(b))
        if empty == "candidate":
            save_all([make_figure("one")], str(a))
        assert main(["compare", str(a), str(b)]) == 2
        named = b if empty == "candidate" else a
        assert (
            f"error: archive directory {str(named)!r} holds no figure"
            in capsys.readouterr().err
        )

    def test_cli_compare_refuses_a_missing_directory(self, tmp_path, capsys):
        from repro.experiments.cli import main

        save_all([make_figure("one")], str(tmp_path / "a"))
        missing = str(tmp_path / "nowhere")
        assert main(["compare", str(tmp_path / "a"), missing]) == 2
        assert (
            f"error: archive directory {missing!r} does not exist"
            in capsys.readouterr().err
        )


class TestUnvalidatedIntervals:
    """Zero-width (n=1) intervals must not claim statistical agreement."""

    def test_zero_width_intervals_do_not_overlap_agree(self):
        # Both figures report half-width 0 (single replication). The
        # values differ beyond tolerance, so they must be flagged —
        # previously |0.5 - 0.7| <= 0 + 0 was simply false, but an
        # unvalidated pair with *equal* values slipped through; the
        # flag closes the whole escape hatch.
        reference = make_figure(y=0.50, half=0.0)
        candidate = make_figure(y=0.70, half=0.0)
        reference.unvalidated_intervals = True
        candidate.unvalidated_intervals = True
        discrepancies = compare_figures(reference, candidate, rel_tolerance=0.10)
        assert discrepancies
        assert all(d.kind == "value" for d in discrepancies)

    def test_unvalidated_flag_disables_overlap_escape(self):
        # Wide, genuinely overlapping intervals -- but one side is
        # n=1, so its half-width is meaningless and only the plain
        # tolerance may decide.
        reference = make_figure(y=0.50, half=0.15)
        candidate = make_figure(y=0.70, half=0.15)
        candidate.unvalidated_intervals = True
        discrepancies = compare_figures(reference, candidate, rel_tolerance=0.01)
        assert discrepancies

    def test_validated_overlap_still_agrees(self):
        reference = make_figure(y=0.50, half=0.15)
        candidate = make_figure(y=0.70, half=0.15)
        assert compare_figures(reference, candidate, rel_tolerance=0.01) == []

    def test_flag_round_trips_through_archive(self, tmp_path):
        figure = make_figure()
        figure.unvalidated_intervals = True
        save_figure(figure, str(tmp_path))
        loaded = load_figure(os.path.join(str(tmp_path), "figX.json"))
        assert loaded.unvalidated_intervals is True

    def test_flag_defaults_false_for_legacy_archives(self, tmp_path):
        save_figure(make_figure(), str(tmp_path))
        loaded = load_figure(os.path.join(str(tmp_path), "figX.json"))
        assert loaded.unvalidated_intervals is False


class TestManifestIntegration:
    """save_figure writes the RunManifest next to the archive."""

    def make_manifest_figure(self):
        from repro.obs import RunManifest

        figure = make_figure()
        figure.manifest = RunManifest(
            figure_id=figure.figure_id,
            backend="analytical",
            backend_version="1.0",
            metric=figure.metric,
            seed=7,
        )
        return figure

    def test_manifest_written_next_to_archive(self, tmp_path):
        from repro.obs import load_manifest, manifest_path

        figure = self.make_manifest_figure()
        save_figure(figure, str(tmp_path))
        path = manifest_path(str(tmp_path), figure.figure_id)
        loaded = load_manifest(path)
        assert loaded.figure_id == figure.figure_id
        assert loaded.backend == "analytical"

    def test_load_archive_skips_manifests(self, tmp_path):
        figure = self.make_manifest_figure()
        save_figure(figure, str(tmp_path))
        archive = load_archive(str(tmp_path))
        assert set(archive) == {figure.figure_id}

    def test_no_manifest_no_file(self, tmp_path):
        from repro.obs import manifest_path

        figure = make_figure()
        save_figure(figure, str(tmp_path))
        assert not os.path.exists(manifest_path(str(tmp_path), figure.figure_id))
