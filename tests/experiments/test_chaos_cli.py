"""The ``repro chaos`` subcommand: end-to-end recovery and its error
contracts.

The smoke run uses a 4-point fig4a slice at the quick preset, so the
clean+faulted pair completes in a couple of seconds; the crash
fraction is high enough that at least one injected fault is
statistically certain to fire across the four evaluation keys. Both
runs go through the pool executor.
"""

import pytest

import repro.experiments.chaos as chaos
from repro.experiments import cli, run_chaos
from repro.experiments.faultinject import BackendFaultPlan
from repro.experiments.runner import FigureResult
from repro.obs import RunManifest, load_manifest, manifest_path


SMOKE_ARGS = [
    "chaos",
    "fig4a",
    "--preset",
    "quick",
    "--max-points",
    "4",
    "--crash",
    "0.9",
    "--retries",
    "1",
    "--deadline",
    "60",
]


class TestChaosSmoke:
    def test_crash_plan_recovers_bit_identically(self, tmp_path, capsys):
        out_dir = str(tmp_path / "chaos-out")
        rc = cli.main(SMOKE_ARGS + ["--out", out_dir])
        captured = capsys.readouterr()
        assert rc == 0
        assert "verdict: RECOVERED" in captured.out
        assert "archives: bit-identical" in captured.out
        # Both archives landed for post-mortem comparison.
        assert (tmp_path / "chaos-out" / "clean").is_dir()
        assert (tmp_path / "chaos-out" / "faulted").is_dir()

    def test_corrupted_results_fail_the_verdict(self, capsys):
        # A corrupted result raises no supervisor event, yet it is a
        # fault that fired: the archives differ, and the verdict says so.
        rc = cli.main(
            ["chaos", "fig4a", "--preset", "quick", "--max-points", "2",
             "--crash", "0", "--corrupt", "1.0"]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "verdict: FAILED" in captured.out
        assert "2 discrepancy(ies)" in captured.out
        assert "WARNING" not in captured.out


class TestChaosApi:
    def test_fault_free_plan_is_trivially_recovered(self):
        outcome = run_chaos(
            "fig4a",
            preset="quick",
            max_points=2,
            fault_plan=BackendFaultPlan(backend_id="san-sim", salt="quiet"),
        )
        assert outcome.recovered
        assert outcome.bit_identical
        assert outcome.faults_fired == 0

    def test_crash_on_every_attempt_recovers_on_the_pool(self, tmp_path):
        out_dir = str(tmp_path / "out")
        outcome = run_chaos(
            "fig4a",
            preset="quick",
            max_points=2,
            fault_plan=BackendFaultPlan(
                backend_id="san-sim", crash_fraction=1.0, crash_attempts=None
            ),
            out_dir=out_dir,
        )
        assert outcome.recovered
        assert outcome.bit_identical
        assert outcome.degraded == ["san-sim -> san-sim-full"] * 2
        manifest = load_manifest(manifest_path(f"{out_dir}/faulted", "fig4a"))
        assert manifest.execution["executor"] == "pool"
        assert manifest.preset == "quick"
        assert manifest.resilience["summary"]["by_kind"]["degraded"] == 2


    def test_retries_flag_sets_the_supervisor_retries(self, tmp_path):
        out_dir = str(tmp_path / "out")
        rc = cli.main(
            ["chaos", "fig4a", "--preset", "quick",
             "--max-points", "1", "--crash", "1.0", "--retries", "0",
             "--out", out_dir]
        )
        assert rc == 0
        manifest = load_manifest(manifest_path(f"{out_dir}/faulted", "fig4a"))
        # One san-sim attempt, then straight to san-sim-full.
        assert manifest.execution["attempts"] == {"0": 2}


def _two_check_verdict_failed(clean, faulted, tolerance):
    """The two-check verdict the one judge replaced: FAILED unless the
    archives are bit-identical, or pass both ``compare_figures`` with
    its interval-overlap escape and a band of
    ``tolerance × max(|clean|, |faulted|)`` on every point."""
    if clean.series == faulted.series:
        return False
    if chaos.compare_figures(clean, faulted, rel_tolerance=tolerance):
        return True
    for label, points in clean.series.items():
        faulted_by_x = {x: y for x, y, _ in faulted.series.get(label, [])}
        for x, clean_y, _ in points:
            if x not in faulted_by_x:
                return True
            faulted_y = faulted_by_x[x]
            band = tolerance * max(abs(clean_y), abs(faulted_y))
            if abs(faulted_y - clean_y) > band:
                return True
    return False


def _figure(series):
    figure = FigureResult(
        "fig4a", "t", "x", "useful_work_fraction", series=series,
        backend="san-sim",
    )
    figure.manifest = RunManifest(
        figure_id="fig4a",
        points_total=sum(len(points) for points in series.values()),
    )
    return figure


#: Clean/faulted pairs at tolerance 0.15: (clean series, faulted
#: series, FAILED by the one judge). Every pair the two checks failed
#: must fail the one judge that replaced them.
VERDICT_PAIRS = {
    "bit-identical": ({"s": [(1.0, 100.0, 5.0)]},
                      {"s": [(1.0, 100.0, 5.0)]}, False),
    "within-tolerance": ({"s": [(1.0, 100.0, 5.0)]},
                         {"s": [(1.0, 110.0, 5.0)]}, False),
    # The intervals overlap (30 <= 20 + 20), so only the band failed.
    "band-only": ({"s": [(1.0, 100.0, 20.0)]},
                  {"s": [(1.0, 130.0, 20.0)]}, True),
    # 15 < 17 <= 0.15 * 117 = 17.55, no overlap: only compare failed.
    "compare-only": ({"s": [(1.0, 100.0, 1.0)]},
                     {"s": [(1.0, 117.0, 1.0)]}, True),
    "both": ({"s": [(1.0, 100.0, 1.0)]},
             {"s": [(1.0, 200.0, 1.0)]}, True),
    "negative-values": ({"s": [(1.0, -135.0, 1716.0)]},
                        {"s": [(1.0, -100.0, 1716.0)]}, True),
    "small-values": ({"s": [(1.0, 1e-6, 0.0)]},
                     {"s": [(1.0, 1.2e-6, 0.0)]}, True),
    "missing-point": ({"s": [(1.0, 100.0, 5.0), (2.0, 90.0, 5.0)]},
                      {"s": [(1.0, 100.0, 5.0)]}, True),
    "missing-series": ({"s": [(1.0, 100.0, 5.0)], "t": [(1.0, 50.0, 5.0)]},
                       {"s": [(1.0, 100.0, 5.0)]}, True),
    # Within both of the two checks (overlap, and 16 <= 0.15 * 116), but
    # past 0.15 * |clean| = 15: the one judge is the stricter one.
    "overlap-within-band": ({"s": [(1.0, 100.0, 30.0)]},
                            {"s": [(1.0, 116.0, 30.0)]}, True),
}


@pytest.mark.parametrize("name", sorted(VERDICT_PAIRS))
def test_verdict_is_never_looser_than_the_two_checks(name, monkeypatch):
    clean_series, faulted_series, failed_now = VERDICT_PAIRS[name]
    clean, faulted = _figure(clean_series), _figure(faulted_series)
    runs = iter([clean, faulted])
    monkeypatch.setattr(chaos, "run_figure", lambda figure_id, **kw: next(runs))
    outcome = run_chaos("fig4a", tolerance=0.15)
    assert (not outcome.recovered) == failed_now
    if _two_check_verdict_failed(clean, faulted, 0.15):
        assert not outcome.recovered


class TestChaosErrors:
    def test_unknown_figure_exits_2(self, capsys):
        rc = cli.main(["chaos", "no-such-figure"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "choose from" in (captured.err + captured.out)

    def test_custom_figure_exits_2(self, capsys):
        rc = cli.main(["chaos", "fig3"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "sweep figure" in (captured.err + captured.out)

    def test_run_chaos_refuses_a_custom_figure(self):
        # run_figure does the refusing: a custom figure takes no
        # executor or point slice.
        from repro.backends import BackendError

        with pytest.raises(BackendError, match="not a SAN sweep"):
            run_chaos("fig3", max_points=1)
