"""The figure path keeps ``scipy.stats`` out of the interpreter.

Importing ``scipy.stats`` costs about a second, several times what the
rest of the CLI costs, and a cache-served figure needs none of it: the
one statistic the figure path computes, the Student-t critical value,
comes from ``scipy.special``. Each check runs in a fresh interpreter,
as a user's command does.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def _loaded_after(code: str, cwd: str) -> dict:
    """Run ``code`` in a fresh interpreter; report which scipy
    submodules it left loaded."""
    probe = (
        code
        + "\nimport sys"
        + "\nprint('scipy.stats' in sys.modules, 'scipy.special' in sys.modules)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        cwd=cwd, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    stats, special = result.stdout.strip().splitlines()[-1].split()
    return {"scipy.stats": stats == "True", "scipy.special": special == "True"}


def test_cli_import_loads_no_scipy_statistics(tmp_path):
    loaded = _loaded_after("import repro.experiments.cli", str(tmp_path))
    assert loaded == {"scipy.stats": False, "scipy.special": False}


def test_cache_served_figure_loads_no_scipy_stats(tmp_path):
    run = (
        "from repro.experiments.cli import main\n"
        "assert main(['run-figure', 'fig4a', '--preset', 'quick', "
        "'--max-points', '2', '--cache-dir', 'cache']) == 0"
    )
    # The first run evaluates both points (confidence intervals need
    # only scipy.special); the second is served from the cache.
    assert not _loaded_after(run, str(tmp_path))["scipy.stats"]
    assert _loaded_after(run, str(tmp_path)) == {
        "scipy.stats": False, "scipy.special": False,
    }
