"""No figure process loads scipy.

The one statistic the figure path computes is the two-sided 95%
Student-t critical value at 1, 2 or 4 degrees of freedom, and
``t_critical`` reads it from a table pinned to ``scipy.special.stdtrit``.
Importing ``scipy.special`` for it would cost a cold figure run about
0.3 s, 17 MB of resident memory and 272 modules, and ``scipy.stats``
several times that. So neither a sweep, cold or served from a cache,
nor a ``repro worker`` draining its points loads any scipy module;
``repro validate``, transient solves and off-table quantiles still do.
Each check runs in a fresh interpreter, as a user's command does.
"""

import os
import subprocess
import sys

from repro.exec import QueueExecutor, WorkQueue
from repro.experiments.config import plan_for
from repro.experiments.figures import FIGURE_SPECS
from repro.experiments.runner import build_sweep_tasks, sweep_eval_plan

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def _scipy_after(code: str, cwd: str) -> list:
    """Run ``code`` in a fresh interpreter; return the scipy modules it
    left loaded, sorted."""
    probe = (
        code
        + "\nimport sys"
        + "\nprint(' '.join(sorted(m for m in sys.modules"
        + " if m.partition('.')[0] == 'scipy')))"
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
    return result.stdout.splitlines()[-1].split()


def test_cli_import_loads_no_scipy_statistics(tmp_path):
    assert _scipy_after("import repro.experiments.cli", str(tmp_path)) == []


def test_cache_served_figure_loads_no_scipy_stats(tmp_path):
    run = (
        "from repro.experiments.cli import main\n"
        "assert main(['run-figure', 'fig4a', '--preset', 'quick', "
        "'--max-points', '2', '--cache-dir', 'cache']) == 0"
    )
    # The first run evaluates both points and computes their intervals;
    # the second is served from the cache.
    assert _scipy_after(run, str(tmp_path)) == []
    assert _scipy_after(run, str(tmp_path)) == []


def test_worker_draining_a_point_loads_no_scipy(tmp_path):
    spec = FIGURE_SPECS["fig4a"]
    eval_plan = sweep_eval_plan(spec.metric, plan_for("quick"), 0)
    [task] = build_sweep_tasks(spec.points()[:1], eval_plan, 0, "san-sim")
    QueueExecutor(str(tmp_path / "q")).submit(task)
    drain = (
        "from repro.experiments.cli import main\n"
        "assert main(['worker', '--queue-dir', 'q', '--max-tasks', '1']) == 0"
    )
    assert _scipy_after(drain, str(tmp_path)) == []
    queue = WorkQueue(str(tmp_path / "q"))
    assert queue.lookup(task.backend, task.cache_key()) is not None
