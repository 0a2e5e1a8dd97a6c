"""Two real drainer processes beside one queue sweep: the global
property the queue's drain rule exists for.

Two ``repro worker`` subprocesses start on a fresh queue; once both
are draining, an in-process ``run_figure(executor="queue")`` sweep of a
fig4a slice submits its points to the same queue and drains beside
them. Assertions: every point was evaluated exactly once across the
workers' evaluation logs and the sweep's ``tasks_executed`` (a sweep
that evaluated a point a worker holds would count it twice), both
workers exit cleanly on SIGTERM, and the sweep's archive is
byte-for-byte identical to a serial ``run_figure`` of the same slice.
"""

import collections
import filecmp
import json
import os
import signal
import subprocess
import sys

import pytest

from repro.experiments.archive import save_figure
from repro.experiments.figures import run_figure

POINTS = 4


def spawn_worker(queue_dir, worker_id):
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--queue-dir", str(queue_dir),
            "--worker-id", worker_id,
            "--poll-interval", "0.05",
            "--idle-exit", "60",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


@pytest.mark.slow
def test_two_workers_zero_double_evaluations_bit_identical(tmp_path):
    queue_dir = tmp_path / "queue"
    workers = [
        spawn_worker(queue_dir, "itest-a"),
        spawn_worker(queue_dir, "itest-b"),
    ]
    outputs = []
    try:
        # Start the sweep only once both workers poll the queue, so
        # they compete for its points.
        for proc in workers:
            banner = proc.stdout.readline()
            assert "draining" in banner, banner
        figure = run_figure(
            "fig4a", preset="quick", seed=1, max_points=POINTS,
            executor="queue", queue_dir=str(queue_dir),
        )
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in workers:
            try:
                out, _ = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
            outputs.append(out)

    # SIGTERM is a clean exit, not a crash.
    assert all(proc.returncode == 0 for proc in workers), outputs

    # Zero double evaluations: no key repeats in the workers' logs,
    # and the workers' evaluations plus the sweep's own add up to one
    # per point.
    counts = collections.Counter()
    workers_dir = queue_dir / "workers"
    for name in os.listdir(workers_dir):
        with open(workers_dir / name, encoding="utf-8") as handle:
            for line in handle:
                counts[json.loads(line)["key"]] += 1
    assert all(count == 1 for count in counts.values()), counts
    executed_here = figure.manifest.execution["tasks_executed"]
    assert sum(counts.values()) + executed_here == POINTS, (
        counts, executed_here
    )
    assert counts, "no worker took a point; the test proved nothing"
    assert not figure.failures

    # The sweep's archive is bit-identical to a serial run.
    save_figure(figure, str(tmp_path / "queue_out"))
    serial = run_figure("fig4a", preset="quick", seed=1, max_points=POINTS)
    save_figure(serial, str(tmp_path / "serial_out"))
    assert filecmp.cmp(
        str(tmp_path / "queue_out" / "fig4a.json"),
        str(tmp_path / "serial_out" / "fig4a.json"),
        shallow=False,
    )
