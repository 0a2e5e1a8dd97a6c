"""CLI coverage for the checkpointing-strategy zoo.

The surface under test: ``repro strategies`` lists the registry;
``--strategy`` is forwarded to the figure runner, rejected with exit 2
when unknown or malformed, and rejected on custom (non-SAN-sweep)
figures; ``repro validate --backends`` filters the differential cases
and is loud about typos. Exit-code conventions follow the rest of the
CLI: 0 success, 1 validation failure, 2 operational/usage error.
"""

from repro.backends import BackendError
from repro.experiments import cli


class TestStrategiesCommand:
    def test_lists_every_registered_strategy(self, capsys):
        rc = cli.main(["strategies"])
        out = capsys.readouterr().out
        assert rc == 0
        for strategy_id in ("adaptive", "flat", "incremental"):
            assert strategy_id in out

    def test_shows_parameters_with_defaults(self, capsys):
        cli.main(["strategies"])
        out = capsys.readouterr().out
        assert "compression_ratio=0.5" in out
        assert "full_checkpoint_period=4" in out

    def test_shows_the_reduction_oracle(self, capsys):
        # The listing documents how each variant reduces to flat —
        # the contract docs/STRATEGIES.md requires of new variants.
        cli.main(["strategies"])
        out = capsys.readouterr().out
        assert "flat reduction:" in out


class TestStrategyOption:
    def test_unknown_strategy_exits_2(self, capsys):
        rc = cli.main(
            ["run-figure", "strategy-compare", "--preset", "quick",
             "--strategy", "nope"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "unknown strategy 'nope'" in captured.err
        assert "adaptive, flat, incremental" in captured.err

    def test_malformed_spec_exits_2(self, capsys):
        rc = cli.main(
            ["run-figure", "strategy-compare", "--preset", "quick",
             "--strategy", "incremental:compression_ratio=teal"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "compression_ratio" in captured.err

    def test_invalid_parameter_value_exits_2(self, capsys):
        rc = cli.main(
            ["run-figure", "strategy-compare", "--preset", "quick",
             "--strategy", "incremental:compression_ratio=0"]
        )
        assert rc == 2

    def test_strategy_forwarded_to_runner(self, monkeypatch):
        seen = {}

        def capturing_runner(figure_id, **kwargs):
            seen.update(kwargs)
            raise BackendError("stop after capture")

        monkeypatch.setattr(cli, "run_figure", capturing_runner)
        rc = cli.main(
            ["run-figure", "strategy-compare", "--preset", "quick",
             "--strategy", "incremental:compression_ratio=0.25"]
        )
        assert rc == 2
        assert seen["strategy"] == "incremental:compression_ratio=0.25"

    def test_no_strategy_flag_forwards_none(self, monkeypatch):
        seen = {}

        def capturing_runner(figure_id, **kwargs):
            seen.update(kwargs)
            raise BackendError("stop after capture")

        monkeypatch.setattr(cli, "run_figure", capturing_runner)
        rc = cli.main(["run-figure", "fig4a", "--preset", "quick"])
        assert rc == 2
        # None means "keep the preset plan's flat strategy", so an
        # unflagged run stays bit-identical to the pre-zoo CLI.
        assert seen["strategy"] is None

    def test_strategy_override_on_custom_figure_exits_2(self, capsys):
        rc = cli.main(
            ["run-figure", "fig3", "--strategy", "incremental"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "strategy" in captured.err


class TestValidateBackendsFilter:
    def test_list_restricted_to_san_sim(self, capsys):
        rc = cli.main(["validate", "--list", "--backends", "san-sim"])
        out = capsys.readouterr().out
        assert rc == 0
        listed = {
            line.split(":")[0] for line in out.splitlines() if ":" in line
        }
        # Only the zoo cases compare san-sim against itself (under
        # different strategies); every other case needs a second
        # backend id and is dropped by the filter.
        assert listed == {"incremental-vs-flat", "adaptive-vs-flat"}

    def test_list_with_multiple_backends(self, capsys):
        rc = cli.main(
            ["validate", "--list", "--backends", "san-sim,san-sim-full"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "kernel-equivalence" in out

    def test_unknown_backend_exits_2(self, capsys):
        rc = cli.main(["validate", "--list", "--backends", "nope"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "unknown backend" in captured.err

    def test_filter_that_empties_every_case_lists_nothing(self, capsys):
        rc = cli.main(["validate", "--list", "--backends", "cluster"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.strip() == ""
