"""``repro claims`` regenerates its figures the way ``run-figure`` does.

Every run option takes effect (a warm cache evaluates nothing,
``--processes 2`` runs on the pool), ``--from-json`` regenerates only
what the archive lacks, and a failed point makes the exit status 1.
The sweeps run on a micro plan and a 2- or 3-point slice per figure.
"""

import pytest

from repro.core import HOUR, SimulationPlan
from repro.experiments import CLAIMS, cli, figures
from repro.obs import load_manifest, manifest_path

MICRO = SimulationPlan(warmup=1 * HOUR, observation=8 * HOUR, replications=1)

#: The figures the claims rest on, each regenerated once.
CLAIM_FIGURES = sorted({claim.figure_id for claim in CLAIMS})


@pytest.fixture(autouse=True)
def micro_plans(monkeypatch):
    monkeypatch.setattr(figures, "plan_for", lambda preset: MICRO)


def _claims(*options):
    return cli.main(["claims", "--preset", "quick", "--no-validate", *options])


def _verdicts(output: str) -> str:
    return output[output.index("Paper claims vs measured"):]


def _manifests(directory):
    return [
        load_manifest(manifest_path(str(directory), figure_id))
        for figure_id in CLAIM_FIGURES
    ]


def test_second_run_is_served_by_the_cache(tmp_path, capsys):
    options = ["--max-points", "3", "--cache-dir", str(tmp_path / "cache")]
    _claims(*options)
    first = capsys.readouterr().out
    _claims(*options, "--save-json", str(tmp_path / "out"))
    second = capsys.readouterr().out
    assert [m.new_evaluations for m in _manifests(tmp_path / "out")] == [
        0 for _ in CLAIM_FIGURES
    ]
    assert _verdicts(second) == _verdicts(first)


def test_processes_run_each_figure_on_the_pool(tmp_path):
    _claims("--max-points", "2", "--processes", "2",
            "--save-json", str(tmp_path / "out"))
    assert [m.execution["executor"] for m in _manifests(tmp_path / "out")] == [
        "pool" for _ in CLAIM_FIGURES
    ]


def test_from_json_regenerates_nothing_the_archive_has(
    tmp_path, monkeypatch, capsys
):
    out = str(tmp_path / "out")
    fresh_rc = _claims("--max-points", "3", "--save-json", out)
    fresh = capsys.readouterr().out

    def never(figure_id, **kwargs):
        raise AssertionError(f"claims --from-json regenerated {figure_id}")

    monkeypatch.setattr(cli, "run_figure", never)
    assert cli.main(["claims", "--from-json", out]) == fresh_rc
    archived = capsys.readouterr().out
    # Nothing ran, so the report is all that was printed.
    assert archived == _verdicts(fresh)


def test_from_json_regenerates_what_the_archive_lacks(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run-figure", "fig8", "--preset", "quick",
                     "--save-json", str(out), "--no-validate"]) == 0
    capsys.readouterr()
    _claims("--from-json", str(out), "--max-points", "1",
            "--save-json", str(tmp_path / "regenerated"))
    regenerated = sorted(
        path.name[: -len(".manifest.json")]
        for path in (tmp_path / "regenerated").glob("*.manifest.json")
    )
    assert regenerated == [fid for fid in CLAIM_FIGURES if fid != "fig8"]
    assert "generic-degradation" in capsys.readouterr().out


def test_failed_point_exits_1(capsys):
    rc = _claims("--max-points", "1", "--point-timeout", "0.001",
                 "--retries", "0")
    out = capsys.readouterr().out
    assert rc == 1
    assert "point failure:" in out
    assert "0/0 claims reproduced" in out
