"""The ``repro chaos`` subcommand: end-to-end recovery and its error
contracts.

The smoke run uses a heavily scaled-down fig4a slice (4 points, 5% of
the quick preset) so the clean+faulted pair completes in a couple of
seconds; the crash fraction is high enough that at least one injected
fault is statistically certain to fire across the four evaluation
keys. Both runs go through the pool executor.
"""

from repro.experiments import cli, run_chaos
from repro.experiments.faultinject import BackendFaultPlan
from repro.obs import load_manifest, manifest_path


SMOKE_ARGS = [
    "chaos",
    "fig4a",
    "--preset",
    "quick",
    "--scale",
    "0.05",
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


class TestChaosApi:
    def test_fault_free_plan_is_trivially_recovered(self):
        outcome = run_chaos(
            "fig4a",
            preset="quick",
            scale=0.05,
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
            scale=0.05,
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
        assert manifest.resilience["summary"]["by_kind"]["degraded"] == 2


    def test_retries_flag_sets_the_supervisor_retries(self, tmp_path):
        out_dir = str(tmp_path / "out")
        rc = cli.main(
            ["chaos", "fig4a", "--preset", "quick", "--scale", "0.05",
             "--max-points", "1", "--crash", "1.0", "--retries", "0",
             "--out", out_dir]
        )
        assert rc == 0
        manifest = load_manifest(manifest_path(f"{out_dir}/faulted", "fig4a"))
        # One san-sim attempt, then straight to san-sim-full.
        assert manifest.execution["attempts"] == {"0": 2}


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

    def test_bad_scale_exits_2(self, capsys):
        rc = cli.main(["chaos", "fig4a", "--scale", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "scale" in (captured.err + captured.out).lower()
