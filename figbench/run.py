"""Figure-regeneration benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 figbench/run.py --workload fig4a-cold --seed 0 --seconds 20 --trace 0

``--trace 0`` runs the workload untraced for ``--seconds`` and reports
the end-to-end metrics (``wall_s``, ``cpu_s``, ``setup_s``,
``peak_rss_mb``). ``--trace 1`` runs it untraced for half the time,
then traced (every layer's public functions wrapped, see
``spans.py``) for the other half, and reports the per-layer ledger.
Both modes check the workload's outputs and exit non-zero when a check
fails. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from the checkout's ``src/``; nothing under it
is changed. Store directories go under ``.figbench-work/`` and are
removed at exit; spans and the run record are written to
``.figbench-out/``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Timed units per phase at least, so every phase has a median.
MIN_UNITS = 3

#: Ladder for the tail percentile of operation latency, in hundredths
#: of a percent so that ranks are exact integers.
PERCENTILES_BP = (5000, 7500, 9000, 9500, 9900, 9990, 9999)

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10

#: What a fresh interpreter imports to run any workload.
IMPORTS = (
    "import repro.experiments.figures, repro.experiments.archive, "
    "repro.experiments.validation, repro.exec.queue"
)


def tail_percentile(samples: Sequence[float],
                    beyond: int = TAIL_BEYOND) -> Tuple[float, float]:
    """``(percentile, value)``: the highest percentile of the ladder
    with at least ``beyond`` samples ranked above it (nearest-rank), or
    the median when even the median has fewer."""
    ordered = sorted(samples)
    n = len(ordered)

    def rank(bp: int) -> int:
        return max(1, -(-bp * n // 10000))

    chosen = PERCENTILES_BP[0]
    for bp in PERCENTILES_BP:
        if n - rank(bp) >= beyond:
            chosen = bp
    return chosen / 100.0, ordered[rank(chosen) - 1]


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (SRC, env.get("PYTHONPATH")) if part
    )
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", IMPORTS], env=env, check=True, timeout=120,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def run_phase(workload, seconds: float, recorder=None) -> List[Any]:
    """Timed units until ``seconds`` have passed (``MIN_UNITS`` at least)."""
    units = []
    start = time.perf_counter()
    while len(units) < MIN_UNITS or time.perf_counter() - start < seconds:
        units.append(workload.run_unit(recorder))
    return units


def stamp() -> Dict[str, Any]:
    """Where the numbers were taken."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder, workload, units: List[Any], traced: List[Any],
                  import_s: float) -> Dict[str, Tuple[float, str]]:
    """The per-layer ledger: traced span totals per unit of work, the
    untraced run's exact counts, and the tracing overhead."""
    totals = recorder.totals()
    per_unit = 1.0 / len(traced)

    def total(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0) * per_unit

    def own(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0) * per_unit

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0) * per_unit

    def fsyncs(layer: str) -> float:
        return per_unit * sum(
            row["fsyncs"] for name, row in totals.items()
            if spans.layer_of(name) == layer
        )

    counts = units[-1].counts
    run_s = total("san.run")
    op_ms = [
        1000.0 * value
        for value in recorder.op_durations(workload.op_kind == "point").values()
    ]
    tail_pct, tail_ms = tail_percentile(op_ms) if op_ms else (0.0, 0.0)
    op_fsyncs = recorder.op_fsyncs()
    evaluated = recorder.ops_with("exec.execute_task")
    evaluated_fsyncs = sum(op_fsyncs.get(op, 0) for op in evaluated)
    submitted = calls("exec.queue_submit")

    metrics: Dict[str, Tuple[float, str]] = {
        "san.run_s": (run_s, "s"),
        "san.run_calls": (calls("san.run"), "count"),
        "san.init_s": (total("san.init"), "s"),
        "san.events": (counts["san.events"], "count"),
        "san.events_per_s": (_ratio(counts["san.events"], run_s), "1/s"),
        "san.heap_pushes": (counts["san.heap_pushes"], "count"),
        "san.stale_pop_ratio": (
            _ratio(counts["san.stale_pops"], counts["san.heap_pushes"]), "ratio"),
        "san.check_efficiency": (_ratio(
            counts["san.enabled_checks_skipped"],
            counts["san.enabled_checks"] + counts["san.enabled_checks_skipped"],
        ), "ratio"),
        "san.resamples": (counts["san.resamples"], "count"),
        "san.stabilisation_firings": (counts["san.stabilisation_firings"], "count"),
        "core.build_system_s": (total("core.build_system"), "s"),
        "core.build_system_calls": (calls("core.build_system"), "count"),
        "core.simulate_self_s": (own("core.simulate"), "s"),
        "backends.cache_get_s": (total("backends.cache_get"), "s"),
        "backends.cache_get_calls": (calls("backends.cache_get"), "count"),
        "backends.cache_hit_ratio": (_ratio(
            counts["backends.cache_hits"],
            counts["backends.cache_hits"] + counts["backends.cache_misses"],
        ), "ratio"),
        "backends.request_digest_s": (total("backends.request_digest"), "s"),
        "backends.request_digest_calls": (
            calls("backends.request_digest"), "count"),
        "backends.cache_put_s": (total("backends.cache_put"), "s"),
        "backends.cache_put_calls": (calls("backends.cache_put"), "count"),
        "backends.evaluate_self_s": (own("backends.evaluate"), "s"),
        "backends.fsyncs": (fsyncs("backends"), "count"),
        "exec.execute_task_self_s": (own("exec.execute_task"), "s"),
        "exec.tasks": (counts["exec.tasks"], "count"),
        "exec.task_encode_s": (total("exec.task_encode"), "s"),
        "exec.task_decode_s": (total("exec.task_decode"), "s"),
        "exec.cache_key_s": (total("exec.cache_key"), "s"),
        "exec.queue_submit_s": (total("exec.queue_submit"), "s"),
        "exec.queue_drain_self_s": (own("exec.queue_drain"), "s"),
        "exec.coalesced_ratio": (_ratio(counts["exec.coalesced"], submitted), "ratio"),
        "exec.fsyncs": (fsyncs("exec"), "count"),
        "exec.wait_s": (
            statistics.median(u.wall - u.cpu for u in units), "s"),
        "experiments.run_sweep_self_s": (own("experiments.run_sweep"), "s"),
        "experiments.journal_record_s": (total("experiments.journal_record"), "s"),
        "experiments.journal_records": (
            calls("experiments.journal_record"), "count"),
        "experiments.fsyncs": (fsyncs("experiments"), "count"),
        "experiments.fsyncs_per_evaluated_point": (
            _ratio(evaluated_fsyncs, len(evaluated)), "count"),
        "experiments.save_figure_s": (total("experiments.save_figure"), "s"),
        "experiments.op_p50_ms": (
            statistics.median(op_ms) if op_ms else 0.0, "ms"),
        "experiments.op_tail_ms": (tail_ms, "ms"),
        "experiments.op_tail_pct": (tail_pct, "%"),
        "experiments.ops": (len(op_ms), "count"),
        "obs.snapshot_s": (total("obs.snapshot"), "s"),
        "repro.import_s": (import_s, "s"),
        # Mean, like the span totals above, so shares of it add up.
        "tracing.wall_s": (statistics.fmean(u.wall for u in traced), "s"),
        "tracing.overhead_ratio": (
            statistics.median(u.wall for u in traced)
            / statistics.median(u.wall for u in units) - 1.0, "ratio"),
    }
    for name, value in sorted(counts.items()):
        metrics.setdefault(name, (value, "count"))
    return metrics


def ledger_lines(recorder, traced_units: int, traced_wall: float) -> List[str]:
    """Self time per span and per layer, per unit, as printable lines;
    ``traced_wall`` is the mean wall time of a traced unit."""
    totals = recorder.totals()
    lines = [f"ledger per unit ({traced_units} traced unit(s), "
             f"mean traced wall {traced_wall:.4f} s):"]
    layers: Dict[str, float] = {}
    for name, row in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        self_s = row["self_s"] / traced_units
        layer = spans.layer_of(name)
        layers[layer] = layers.get(layer, 0.0) + self_s
        lines.append(
            f"  {name:<28} calls {row['calls'] / traced_units:>9.1f}  "
            f"total {row['total_s'] / traced_units:>9.4f} s  "
            f"self {self_s:>9.4f} s  fsyncs {row['fsyncs'] / traced_units:>7.1f}"
        )
    lines.append("layer self time per unit (share of traced wall):")
    for layer, self_s in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<12} {self_s:>9.4f} s  "
                     f"{100.0 * _ratio(self_s, traced_wall):6.2f}%")
    return lines


def measure(name: str, seed: int, seconds: float, trace: bool,
            setup_repeats: int = SETUP_REPEATS,
            max_points: Optional[int] = None,
            out=print) -> Dict[str, Any]:
    """Run one workload and return the result object (see module doc)."""
    from workloads import WORKLOADS  # imports the program from SRC

    workdir = os.path.join(ROOT, ".figbench-work", f"{name}-{os.getpid()}")
    outdir = os.path.join(ROOT, ".figbench-out")
    os.makedirs(outdir, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, workdir, max_points=max_points)
        setups, imports = [], []
        for _ in range(setup_repeats):
            imports.append(import_seconds())
            start = time.perf_counter()
            workload.setup()
            setups.append(imports[-1] + time.perf_counter() - start)
        units = run_phase(workload, seconds / 2 if trace else seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced: List[Any] = []
        recorder = spans.SpanRecorder()
        if trace:
            with spans.instrument(recorder):
                traced = run_phase(workload, seconds / 2, recorder)
        problems = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still used by a concurrent run
            os.rmdir(os.path.dirname(workdir))

    everything = units + traced
    if any(u.counts != units[0].counts for u in everything[1:]):
        problems.append("exact counts differ between units")
    if trace:
        metrics = layer_metrics(
            recorder, workload, units, traced, statistics.median(imports)
        )
    else:
        metrics = {
            "wall_s": (statistics.median(u.wall for u in units), "s"),
            "cpu_s": (statistics.median(u.cpu for u in units), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": sum(u.ops for u in everything),
        "failed": sum(u.failed for u in everything),
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "stamp": stamp(), "units": len(units), "traced_units": len(traced),
        "unit_walls": [u.wall for u in units], "unit_cpus": [u.cpu for u in units],
        "setups": setups, "counts": units[-1].counts, "problems": problems,
        "result": result,
    }
    base = os.path.join(outdir, f"{name}-seed{seed}-trace{int(trace)}")
    with open(base + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    if trace:
        recorder.write_jsonl(base + ".spans.jsonl")

    out(f"workload {name}  seed {seed}  trace {int(trace)}  "
        f"units {len(units)} untraced, {len(traced)} traced")
    out("stamp: " + " ".join(f"{k}={v}" for k, v in record["stamp"].items()))
    out("unit walls (s): " + " ".join(f"{w:.4f}" for w in record["unit_walls"]))
    out("counts per unit: " + " ".join(
        f"{k}={v}" for k, v in sorted(units[-1].counts.items())))
    if trace:
        for line in ledger_lines(recorder, len(traced),
                                 statistics.fmean(u.wall for u in traced)):
            out(line)
    for key, (value, unit) in metrics.items():
        out(f"{key} = {value!r} {unit}")
    for problem in problems:
        out(f"CHECK FAILED: {problem}")
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig4a-cold", "fig4a-warm", "queue-analytical"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"figbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    # Compile first so no measured import pays one-time .pyc writes.
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    sys.path.insert(0, SRC)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
