"""No figure process loads scipy, or a layer that no figure run uses.

The one statistic the figure path computes is the two-sided 95%
Student-t critical value at 1, 2 or 4 degrees of freedom, and
``t_critical`` reads it from a table pinned to ``scipy.special.stdtrit``.
Importing ``scipy.special`` for it would cost a cold figure run about
0.3 s, 17 MB of resident memory and 272 modules, and ``scipy.stats``
several times that. So neither a sweep, cold or served from a cache,
nor a ``repro worker`` draining its points loads any scipy module;
``repro validate``, transient solves and off-table quantiles still do.

The same processes load none of :data:`DEFERRED`: the packages export
those layers lazily and the stock backends are built on first lookup,
so the cluster simulator, the closed forms, the CTMC solvers, the
validation suite, the chaos drill and the process pool load only in a
process that asks for them. Each check runs in a fresh interpreter, as
a user's command does.
"""

import os
import subprocess
import sys

from repro.exec import QueueExecutor, WorkQueue
from repro.experiments.config import plan_for
from repro.experiments.figures import FIGURE_SPECS
from repro.experiments.runner import build_sweep_tasks, sweep_eval_plan

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

#: Modules that no figure run or queue worker loads.
DEFERRED = (
    "repro.cluster",
    "repro.analytical",
    "repro.validate",
    "repro.failures",
    "repro.backends.ctmc",
    "repro.backends.cluster",
    "repro.backends.analytical",
    "repro.san.statespace",
    "repro.san.transient",
    "repro.san.dot",
    "repro.core.completion",
    "repro.experiments.chaos",
    "repro.experiments.faultinject",
    "multiprocessing",
)


def _modules_after(code: str, cwd: str) -> list:
    """Run ``code`` in a fresh interpreter; return the names of the
    modules it left loaded, sorted."""
    probe = code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))"
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


def _scipy(modules: list) -> list:
    return [m for m in modules if m.partition(".")[0] == "scipy"]


def _deferred(modules: list) -> list:
    return [m for m in DEFERRED if m in modules]


def test_cli_import_loads_no_scipy_statistics(tmp_path):
    modules = _modules_after("import repro.experiments.cli", str(tmp_path))
    assert _scipy(modules) == []
    assert _deferred(modules) == []


def test_chaos_drill_loads_no_validation_suite(tmp_path):
    # The drill judges its archives with compare_figures alone.
    modules = _modules_after("import repro.experiments.chaos", str(tmp_path))
    assert [
        m for m in modules
        if m == "repro.validate" or m.startswith("repro.validate.")
    ] == []


def test_cache_served_figure_loads_no_scipy_stats(tmp_path):
    run = (
        "from repro.experiments.cli import main\n"
        "assert main(['run-figure', 'fig4a', '--preset', 'quick', "
        "'--max-points', '2', '--cache-dir', 'cache', "
        "'--save-json', 'out']) == 0"
    )
    # The first run evaluates both points, computes their intervals and
    # writes the archive; the second is served from the cache.
    for _ in range(2):
        modules = _modules_after(run, str(tmp_path))
        assert _scipy(modules) == []
        assert _deferred(modules) == []
    assert (tmp_path / "out" / "fig4a.manifest.json").exists()


def test_worker_draining_a_point_loads_no_scipy(tmp_path):
    spec = FIGURE_SPECS["fig4a"]
    eval_plan = sweep_eval_plan(spec.metric, plan_for("quick"), 0)
    [task] = build_sweep_tasks(spec.points()[:1], eval_plan, 0, "san-sim")
    QueueExecutor(str(tmp_path / "q")).submit(task)
    drain = (
        "from repro.experiments.cli import main\n"
        "assert main(['worker', '--queue-dir', 'q', '--max-tasks', '1']) == 0"
    )
    modules = _modules_after(drain, str(tmp_path))
    assert _scipy(modules) == []
    assert _deferred(modules) == []
    queue = WorkQueue(str(tmp_path / "q"))
    assert queue.lookup(task.backend, task.cache_key()) is not None
