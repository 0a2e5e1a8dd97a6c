"""Command-line interface: regenerate any table or figure.

Usage::

    python -m repro list
    python -m repro backends
    python -m repro table3
    python -m repro run-figure fig4a --preset quick --seed 7
    python -m repro run-figure fig4a --preset quick --backend analytical
    python -m repro run-all --preset standard --output EXPERIMENTS.out.md
    python -m repro claims --preset standard --processes 2 --save-json out
    python -m repro claims --from-json out  # judge an archive, run nothing
    python -m repro run-figure fig4a --checkpoint-dir ckpt --resume \
        --retries 3 --point-timeout 1800 --processes 4 --cache-dir cache
    python -m repro run-figure fig4a --preset quick --save-json out \
        --metrics-out metrics.json --trace-out trace.jsonl --trace-sample 100
    python -m repro obs out                 # render the run manifests
    python -m repro obs metrics.json        # render a metrics snapshot
    python -m repro validate                # full statistical validation suite
    python -m repro validate --record --seed 0 --seed 1
    python -m repro validate --check        # per-point drift vs the baselines
    python -m repro validate --perturb mttf_node=0.25   # mutation smoke
    python -m repro run-figure fig4a --retries 2 --degrade-to san-sim-full
    python -m repro chaos fig4a --preset quick --scale 0.1 --max-points 4 \
        --crash 0.5 --hang 0.25 --hang-seconds 120 --deadline 30
    python -m repro worker --queue-dir q    # drain q beside a queue sweep
    python -m repro run-figure fig4a --preset quick --executor queue \
        --queue-dir q --save-json out      # the sweep the workers share
    python -m repro cache prune --cache-dir cache --max-bytes 1048576
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys
import time
from typing import List, Optional, Tuple

from ..backends import BackendError, all_backends, backend_ids
from ..core.simulation import PLAN_KERNELS
from ..exec import EXECUTOR_IDS, ExecutorError
from ..exec.queue import POLL_INTERVAL_SECONDS
from ..strategies import StrategyError
from .config import PRESETS
from .figures import FIGURE_SPECS, run_figure
from .report import (
    render_ascii_chart,
    render_figure,
    render_table3,
    write_markdown_section,
)
from .runner import FigureResult
from .validation import validate_figure

__all__ = ["main", "build_parser"]


def finite_float(text: str) -> float:
    """The ``type`` of every float option: ``float`` without ``nan``
    and ``inf``, which no option means. argparse reports a rejected
    value as a usage error (exit 2) naming the flag."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"must be a finite number, got {text!r}"
        )
    return value


def _at_least(value, text: str, low: int, strict: bool = False):
    """``value`` when it is at least ``low`` (above it when
    ``strict``), else the argparse error that names the bound."""
    if value < low or (strict and value == low):
        raise argparse.ArgumentTypeError(
            f"must be {'>' if strict else '>='} {low}, got {text!r}"
        )
    return value


def positive_float(text: str) -> float:
    """A finite float above 0: a timeout."""
    return _at_least(finite_float(text), text, 0, strict=True)


def non_negative_float(text: str) -> float:
    """A finite float of 0 or more: a wait, where 0 means at once."""
    return _at_least(finite_float(text), text, 0)


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None


def positive_int(text: str) -> int:
    """An integer of 1 or more: a count of points, processes or tasks."""
    return _at_least(_integer(text), text, 1)


def non_negative_int(text: str) -> int:
    """An integer of 0 or more: a count of retries."""
    return _at_least(_integer(text), text, 0)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation of 'Modeling Coordinated Checkpointing "
            "for Large-Scale Supercomputers' (DSN 2005)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list every experiment id")
    sub.add_parser(
        "backends",
        help="list the registered evaluation backends and their capabilities",
    )
    sub.add_parser(
        "strategies",
        help=(
            "list the registered checkpointing strategies, their spec "
            "parameters and their flat-reduction oracles"
        ),
    )
    sub.add_parser("table3", help="print the model-parameter table")

    chaos = sub.add_parser(
        "chaos",
        help=(
            "regenerate a figure on the pool executor clean and under "
            "injected backend faults (crash/hang/slow/corrupt), recover "
            "through retries and fallback backends, and assert the "
            "archives still agree"
        ),
    )
    chaos.add_argument(
        "figure", nargs="?", default="fig4a",
        help="sweep figure to afflict (default: fig4a)",
    )
    chaos.add_argument(
        "--preset", default="quick", choices=sorted(PRESETS),
        help="simulation length/replication preset (default: quick)",
    )
    chaos.add_argument("--seed", type=int, default=0, help="root random seed")
    chaos.add_argument(
        "--scale", type=finite_float, default=1.0,
        help="scale the simulation effort (CI smoke uses <1)",
    )
    chaos.add_argument(
        "--max-points", type=int, default=None, metavar="N",
        help="slice the sweep to its first N points",
    )
    chaos.add_argument(
        "--crash", type=finite_float, default=0.5, metavar="FRACTION",
        help="fraction of evaluations that crash on every attempt "
             "(only a fallback backend escapes; default 0.5)",
    )
    chaos.add_argument(
        "--hang", type=finite_float, default=0.0, metavar="FRACTION",
        help="fraction of evaluations that hang on every attempt",
    )
    chaos.add_argument(
        "--hang-seconds", type=finite_float, default=3600.0, metavar="SECONDS",
        help="how long an injected hang sleeps (default: 3600)",
    )
    chaos.add_argument(
        "--slow", type=finite_float, default=0.0, metavar="FRACTION",
        help="fraction of evaluations delayed by --slow-seconds",
    )
    chaos.add_argument(
        "--slow-seconds", type=finite_float, default=0.0, metavar="SECONDS",
        help="latency added to slow-afflicted evaluations",
    )
    chaos.add_argument(
        "--corrupt", type=finite_float, default=0.0, metavar="FRACTION",
        help="fraction of evaluations whose result means are corrupted "
             "(only the tolerance comparison can catch these)",
    )
    chaos.add_argument(
        "--fault-salt", default="", metavar="TOKEN",
        help="vary the deterministic fault pattern at the same fractions",
    )
    chaos.add_argument(
        "--deadline", type=finite_float, default=30.0, metavar="SECONDS",
        help="point timeout: the pool kills an attempt still running "
             "after it (default: 30)",
    )
    chaos.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="retries per point and backend before falling back "
             "(default: 1)",
    )
    chaos.add_argument(
        "--degrade-to", action="append", default=None, metavar="BACKEND",
        help=(
            "fallback backends, in order (repeatable; default: "
            "san-sim-full when the figure runs on san-sim)"
        ),
    )
    chaos.add_argument(
        "--tolerance", type=finite_float, default=0.15,
        help="relative tolerance of the archive comparison",
    )
    chaos.add_argument(
        "--out", default=None, metavar="DIR",
        help="save both archives under DIR/clean and DIR/faulted",
    )

    worker = sub.add_parser(
        "worker",
        help=(
            "run a long-lived queue drainer: claim tasks from a shared "
            "--queue-dir, execute them while heartbeating the in-flight "
            "lease, exit cleanly on SIGTERM "
            "after the current task (see docs/EXECUTION.md, Service mode)"
        ),
    )
    worker.add_argument(
        "--queue-dir", required=True, metavar="DIR",
        help="shared queue directory (same layout as the queue executor)",
    )
    worker.add_argument(
        "--worker-id", default=None, metavar="NAME",
        help="name for this worker's log and metrics snapshot "
             "(default: worker-<pid>)",
    )
    worker.add_argument(
        "--poll-interval", type=non_negative_float,
        default=POLL_INTERVAL_SECONDS, metavar="SECONDS",
        help="sleep between polls of an empty queue "
             f"(default: {POLL_INTERVAL_SECONDS:g})",
    )
    worker.add_argument(
        "--idle-exit", type=non_negative_float, default=None,
        metavar="SECONDS",
        help="exit after this long with nothing claimable "
             "(default: run until signalled)",
    )
    worker.add_argument(
        "--max-tasks", type=positive_int, default=None, metavar="N",
        help="exit after executing N tasks (default: unlimited)",
    )
    worker.add_argument(
        "--orphan-age", type=non_negative_float, default=None,
        metavar="SECONDS",
        help="in-flight lease threshold shared by janitor and heartbeat "
             "(default: 60; 0 requeues every claim at once)",
    )
    worker.add_argument(
        "--point-timeout", type=positive_float, default=None,
        metavar="SECONDS",
        help="wall-clock limit per task, applied as the simulation's "
             "wall-clock budget (cooperative); a task whose sweep set "
             "a lower --point-timeout keeps the lower one",
    )

    cache = sub.add_parser(
        "cache", help="maintain a content-addressed result cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_prune = cache_sub.add_parser(
        "prune",
        help=(
            "evict least-recently-used entries until the cache fits a "
            "byte budget (safe against live readers and writers)"
        ),
    )
    cache_prune.add_argument(
        "--cache-dir", required=True, metavar="DIR",
        help="cache root (the --cache-dir sweeps write to)",
    )
    cache_prune.add_argument(
        "--max-bytes", type=int, required=True, metavar="N",
        help="byte budget the cache must fit after pruning",
    )

    obs = sub.add_parser(
        "obs",
        help=(
            "validate and render observability artefacts: run manifests "
            "(<figure>.manifest.json or an archive directory) and metrics "
            "snapshots written by --metrics-out"
        ),
    )
    obs.add_argument(
        "path",
        help="a manifest file, a metrics-snapshot file, or an archive directory",
    )
    obs.add_argument(
        "--json",
        action="store_true",
        help="print the validated payload as JSON instead of rendering it",
    )

    run = sub.add_parser("run-figure", help="regenerate one figure")
    run.add_argument("figure", choices=sorted(FIGURE_SPECS))
    _add_run_options(run)

    run_all = sub.add_parser("run-all", help="regenerate every figure")
    _add_run_options(run_all)
    run_all.add_argument(
        "--output", default=None, help="write a Markdown report to this path"
    )

    dot = sub.add_parser(
        "dot", help="print the composed checkpoint model as GraphViz DOT"
    )
    dot.add_argument("--no-clusters", action="store_true",
                     help="do not group activities by submodel")

    claims = sub.add_parser(
        "claims",
        help=(
            "evaluate the paper's claims, regenerating each figure they "
            "need as run-figure does"
        ),
    )
    _add_run_options(claims)
    claims.add_argument(
        "--from-json", default=None, metavar="DIR",
        help=(
            "read the figures from this JSON archive; only figures it "
            "lacks are regenerated"
        ),
    )

    compare = sub.add_parser(
        "compare", help="compare two JSON archives within tolerance"
    )
    compare.add_argument("reference", help="reference archive directory")
    compare.add_argument("candidate", help="candidate archive directory")
    compare.add_argument("--tolerance", type=finite_float, default=0.15,
                         help="relative tolerance per point")

    design = sub.add_parser(
        "design", help="explore the interval x machine-size design space"
    )
    design.add_argument("--mttf-years", type=finite_float, default=1.0,
                        help="per-node MTTF in years")
    design.add_argument("--mttr-minutes", type=finite_float, default=10.0,
                        help="system MTTR in minutes")
    design.add_argument("--processors-per-node", type=int, default=8)
    design.add_argument("--overhead-seconds", type=finite_float, default=57.0,
                        help="blocking checkpoint overhead (quiesce + dump)")

    sensitivity = sub.add_parser(
        "sensitivity", help="rank the parameters by UWF elasticity"
    )
    sensitivity.add_argument("--processors", type=int, default=65536)
    sensitivity.add_argument("--processors-per-node", type=int, default=8)
    sensitivity.add_argument("--mttf-years", type=finite_float, default=1.0)
    sensitivity.add_argument("--mttr-minutes", type=finite_float, default=10.0)
    sensitivity.add_argument("--interval-minutes", type=finite_float, default=30.0)
    sensitivity.add_argument("--overhead-seconds", type=finite_float, default=57.0)

    completion = sub.add_parser(
        "completion", help="terminating job-completion-time study"
    )
    completion.add_argument("--work-hours", type=finite_float, default=24.0,
                            help="job size in hours of whole-machine work")
    completion.add_argument("--processors", type=int, default=65536)
    completion.add_argument("--mttf-years", type=finite_float, default=1.0)
    completion.add_argument("--replications", type=int, default=5)
    completion.add_argument("--seed", type=int, default=0)

    validate = sub.add_parser(
        "validate",
        help=(
            "statistical validation: sampler goodness-of-fit, SAN-executive "
            "metamorphic invariances, cross-backend differential cases, and "
            "golden-baseline drift (see docs/VALIDATION.md)"
        ),
    )
    validate.add_argument(
        "--record", action="store_true",
        help="evaluate the differential cases and freeze golden baselines",
    )
    validate.add_argument(
        "--check", action="store_true",
        help="re-evaluate and report per-point drift against the baselines",
    )
    validate.add_argument(
        "--list", action="store_true", dest="list_cases",
        help="list the differential cases and exit",
    )
    validate.add_argument(
        "--baselines", default="baselines", metavar="DIR",
        help="baseline directory (default: baselines/)",
    )
    validate.add_argument(
        "--seed", type=int, action="append", dest="seeds", metavar="N",
        help=(
            "root seed; may repeat for --record/--check "
            "(default: 0 to run, 0 and 1 to record, recorded seeds to check)"
        ),
    )
    validate.add_argument(
        "--cases", default=None, metavar="NAME[,NAME...]",
        help="restrict to these differential cases",
    )
    validate.add_argument(
        "--backends", default=None, metavar="ID[,ID...]",
        help=(
            "restrict the differential cases to these backend ids "
            "(strategy-suffixed participants such as "
            "'san-sim@incremental:...' count under their base id); "
            "cases left with fewer than two participants are dropped"
        ),
    )
    validate.add_argument(
        "--scale", type=finite_float, default=1.0,
        help="scale the simulation effort of every case (CI smoke uses <1)",
    )
    validate.add_argument(
        "--perturb", default=None, metavar="FIELD=FACTOR[,...]",
        help=(
            "mutation smoke test: multiply these parameter fields by the "
            "given factors for the SAMPLED backends only — a meaningful "
            "perturbation must make some differential case disagree"
        ),
    )
    validate.add_argument(
        "--skip-gof", action="store_true",
        help="skip the goodness-of-fit layer",
    )
    validate.add_argument(
        "--skip-metamorphic", action="store_true",
        help="skip the metamorphic-invariance layer",
    )
    validate.add_argument(
        "--skip-differential", action="store_true",
        help="skip the differential-case layer",
    )
    validate.add_argument(
        "--json", action="store_true",
        help="print the machine-readable summary instead of the report",
    )
    return parser


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset",
        default="standard",
        choices=sorted(PRESETS),
        help="simulation length/replication preset",
    )
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    parser.add_argument(
        "--backend",
        default=None,
        choices=backend_ids(),
        help=(
            "evaluation backend for sweep figures (default: each "
            "figure's declared backend; see the 'backends' command)"
        ),
    )
    parser.add_argument(
        "--kernel",
        default=None,
        choices=PLAN_KERNELS,
        help=(
            "event kernel for sweep figures (default: the preset plan's "
            "kernel, i.e. incremental); both kernels give bit-identical "
            "results per seed"
        ),
    )
    parser.add_argument(
        "--strategy",
        default=None,
        metavar="NAME[:k=v,...]",
        help=(
            "checkpointing strategy for sweep figures (default: the "
            "paper's flat protocol); e.g. "
            "'incremental:compression_ratio=0.5' or "
            "'adaptive'; see the 'strategies' command"
        ),
    )
    parser.add_argument(
        "--processes",
        type=positive_int,
        default=None,
        help="worker processes for the sweep (default: serial)",
    )
    parser.add_argument(
        "--executor",
        default=None,
        choices=list(EXECUTOR_IDS),
        help=(
            "execution strategy for sweep figures: 'serial' (in-process), "
            "'pool' (worker processes, honours --processes), or 'queue' "
            "(file-backed persistent queue with in-flight dedup; requires "
            "--queue-dir); default: serial, or pool when --processes >= 2"
        ),
    )
    parser.add_argument(
        "--queue-dir",
        default=None,
        metavar="DIR",
        help=(
            "directory backing the 'queue' executor (pending/ and "
            "inflight/ task files and a results/ result cache live under "
            "it; survives crashes and dedups repeated submissions of the "
            "same point)"
        ),
    )
    parser.add_argument(
        "--max-points",
        type=positive_int,
        default=None,
        metavar="N",
        help="slice each sweep figure to its first N points",
    )
    parser.add_argument(
        "--no-validate",
        action="store_true",
        help="skip the qualitative shape checks",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also draw an ASCII chart of each figure",
    )
    parser.add_argument(
        "--save-json",
        default=None,
        metavar="DIR",
        help="archive each regenerated figure as JSON in this directory",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help=(
            "journal every completed point to DIR/<figure_id>.journal.jsonl "
            "so an interrupted sweep can be resumed"
        ),
    )
    parser.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "resume from an existing checkpoint journal (default); "
            "--no-resume discards it and starts fresh"
        ),
    )
    parser.add_argument(
        "--retries",
        type=non_negative_int,
        default=2,
        help="times a failed or hung point is retried (with backoff)",
    )
    parser.add_argument(
        "--retry-backoff",
        type=finite_float,
        default=0.5,
        metavar="SECONDS",
        help="initial backoff before a retry; doubles per attempt",
    )
    parser.add_argument(
        "--point-timeout",
        type=positive_float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock limit per point attempt: the pool executor kills "
            "a hung worker and retries the point; serial and queue apply "
            "it cooperatively as the simulation's wall-clock budget"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "content-addressed result cache shared across runs; points "
            "whose (backend, params, plan, seed) were already evaluated "
            "are reused instead of re-simulated"
        ),
    )
    parser.add_argument(
        "--degrade-to",
        action="append",
        default=None,
        metavar="BACKEND",
        help=(
            "fallback backend for a point whose retries ran out "
            "(repeatable, tried in order; a fallback value is labelled "
            "DEGRADED and never cached or journaled)"
        ),
    )
    parser.add_argument(
        "--kernel-stats",
        action="store_true",
        help=(
            "print aggregated simulation-kernel counters (heap traffic, "
            "enabling checks avoided, events/sec) after the sweep; "
            "forces a serial sweep (worker processes do not report stats)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help=(
            "write the process metrics registry (counters, gauges, "
            "timings) as JSON to PATH after the run; render it later "
            "with the 'obs' command"
        ),
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help=(
            "export SAN firings and cluster protocol events of every "
            "figure the command runs as JSON lines to PATH; forces a "
            "serial sweep (worker processes do not share the sink)"
        ),
    )
    parser.add_argument(
        "--trace-sample",
        type=positive_int,
        default=1,
        metavar="N",
        help="with --trace-out: keep one event in every N per kind",
    )
    parser.add_argument(
        "--trace-max-events",
        type=int,
        default=None,
        metavar="N",
        help="with --trace-out: stop writing a figure's events after N kept ones",
    )


def _resilience_from_args(args: argparse.Namespace):
    from .resilience import ResilienceOptions, RetryPolicy

    return ResilienceOptions(
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        resume=getattr(args, "resume", True),
        retry=RetryPolicy(
            max_retries=getattr(args, "retries", 2),
            backoff_base=getattr(args, "retry_backoff", 0.5),
        ),
        point_timeout=getattr(args, "point_timeout", None),
        cache_dir=getattr(args, "cache_dir", None),
        degrade_to=tuple(getattr(args, "degrade_to", None) or ()),
    )


#: ``run_figure``'s sweep-only arguments, each set by the flag of the
#: same name. A figure that is not a SAN sweep refuses them.
_SWEEP_OPTIONS = (
    "backend", "kernel", "strategy", "executor", "queue_dir", "max_points",
)


def _without_sweep_options(
    figure_id: str, args: argparse.Namespace
) -> argparse.Namespace:
    """``args`` for ``run-all``'s figures that are not SAN sweeps: the
    sweep-only options set to ``None``, after one line naming them."""
    dropped = [name for name in _SWEEP_OPTIONS if getattr(args, name, None) is not None]
    if not dropped:
        return args
    flags = ", ".join("--" + name.replace("_", "-") for name in dropped)
    print(f"{figure_id} is not a SAN sweep: running it without {flags}")
    return argparse.Namespace(**{**vars(args), **dict.fromkeys(dropped)})


@contextlib.contextmanager
def _trace_sink(args: argparse.Namespace):
    """The command's ``--trace-out`` sink, installed as the process
    sink around every figure the command runs and closed on every exit
    path; ``None`` without the flag."""
    from ..obs import trace as obs_trace

    trace_out = getattr(args, "trace_out", None)
    if not trace_out:
        yield None
        return
    with obs_trace.JsonlTraceSink(
        trace_out,
        sample_every=getattr(args, "trace_sample", 1),
        max_events=getattr(args, "trace_max_events", None),
    ) as sink:
        previous = obs_trace.set_default_sink(sink)
        try:
            yield sink
        finally:
            obs_trace.set_default_sink(previous)


def _run_one(
    figure_id: str, args: argparse.Namespace, stream, sink=None
) -> Tuple[FigureResult, bool]:
    """Regenerate one figure with every run option, print it and its
    shape checks, and write what the options ask for. ``sink`` is the
    command's :func:`_trace_sink`; its counts restart for each figure.
    Returns the figure and whether it has no failed point and no failed
    check."""
    from ..obs import metrics as obs_metrics
    from ..san import profiling

    processes = args.processes
    executor = getattr(args, "executor", None)
    kernel_stats = getattr(args, "kernel_stats", False)
    if kernel_stats or sink is not None:
        # Worker processes neither report kernel stats nor share the
        # trace sink, so both flags keep the sweep in this process.
        ignored = []
        if executor == "pool":
            ignored.append("--executor pool")
            executor = "serial"
        if processes not in (None, 1):
            ignored.append("--processes")
        processes = None
        if ignored:
            flag = "--kernel-stats" if kernel_stats else "--trace-out"
            print(
                f"{flag} forces a serial sweep "
                f"(ignoring {' and '.join(ignored)})"
            )
    if kernel_stats:
        profiling.enable_aggregation(reset=True)
    if sink is not None:
        sink.reset_counts()
    started = time.time()
    try:
        figure = run_figure(
            figure_id,
            preset=args.preset,
            seed=args.seed,
            processes=processes,
            resilience=_resilience_from_args(args),
            backend=getattr(args, "backend", None),
            kernel=getattr(args, "kernel", None),
            strategy=getattr(args, "strategy", None),
            executor=executor,
            queue_dir=getattr(args, "queue_dir", None),
            max_points=getattr(args, "max_points", None),
        )
    finally:
        stats = profiling.aggregated() if kernel_stats else None
        if kernel_stats:
            profiling.disable_aggregation()
    elapsed = time.time() - started
    if stats is not None:
        print(stats.summary())
    if sink is not None:
        offered = sum(sink.offered.values())
        print(
            f"trace: {sink.written} of {offered} offered event(s) "
            f"written to {sink.path}"
        )
    print(render_figure(figure))
    if getattr(args, "chart", False):
        print()
        print(render_ascii_chart(figure))
    print(f"({elapsed:.1f} s, preset={args.preset})")
    ok = not figure.failures
    for report in figure.failures:
        print(f"point failure: {report.summary()}")
    if not args.no_validate:
        for check in validate_figure(figure):
            print(str(check))
            ok = ok and check.passed
    if stream is not None:
        write_markdown_section(figure, stream)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        import json as _json

        parent = os.path.dirname(metrics_out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(metrics_out, "w", encoding="utf-8") as handle:
            _json.dump(
                obs_metrics.registry().snapshot(), handle,
                indent=2, sort_keys=True,
            )
            handle.write("\n")
        print(f"metrics written to {metrics_out}")
    if getattr(args, "save_json", None):
        from ..obs import manifest_path
        from .archive import save_figure

        save_figure(figure, args.save_json)
        if figure.manifest is not None:
            print(
                "manifest written to "
                f"{manifest_path(args.save_json, figure.figure_id)}"
            )
    print()
    return figure, ok


def _obs_command(path: str, as_json: bool = False) -> int:
    """Validate and render manifests / metrics snapshots at ``path``.

    A directory renders every ``*.manifest.json`` and every
    ``*.metrics.json`` inside it (the latter is what service workers
    leave under ``<queue_dir>/obs/``); a
    ``.manifest.json`` file renders that manifest; any other JSON file
    is treated as a metrics snapshot written by ``--metrics-out``.
    Returns 0 when everything validated, 1 otherwise.
    """
    import json
    import os

    from ..obs import (
        ManifestError,
        load_manifest,
        render_manifest,
        render_metrics_snapshot,
    )

    def render_one_manifest(manifest_file: str) -> bool:
        try:
            manifest = load_manifest(manifest_file)
        except ManifestError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return False
        if as_json:
            print(json.dumps(manifest.to_json_dict(), indent=2, sort_keys=True))
        else:
            print(render_manifest(manifest))
        return True

    def render_one_snapshot(snapshot_file: str, named: bool = False) -> bool:
        try:
            with open(snapshot_file, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {snapshot_file!r}: {exc}",
                  file=sys.stderr)
            return False
        if not isinstance(payload, dict) or "counters" not in payload:
            print(
                f"error: {snapshot_file!r} is neither a run manifest nor a "
                "metrics snapshot (no 'counters' key)",
                file=sys.stderr,
            )
            return False
        if as_json:
            print(json.dumps(payload, indent=2, sort_keys=True))
            return True
        if named:
            print(f"metrics: {os.path.basename(snapshot_file)}")
        rendered = render_metrics_snapshot(payload)
        if rendered:
            print(rendered)
        return True

    if os.path.isdir(path):
        names = sorted(os.listdir(path))
        manifest_files = [
            os.path.join(path, name)
            for name in names
            if name.endswith(".manifest.json")
        ]
        metrics_files = [
            os.path.join(path, name)
            for name in names
            if name.endswith(".metrics.json")
        ]
        if not manifest_files and not metrics_files:
            print(
                f"error: no *.manifest.json or *.metrics.json files in "
                f"{path!r}",
                file=sys.stderr,
            )
            return 1
        ok = True
        first = True
        for manifest_file in manifest_files:
            if not first and not as_json:
                print()
            first = False
            ok = render_one_manifest(manifest_file) and ok
        for metrics_file in metrics_files:
            if not first and not as_json:
                print()
            first = False
            ok = render_one_snapshot(metrics_file, named=True) and ok
        return 0 if ok else 1

    if path.endswith(".manifest.json"):
        return 0 if render_one_manifest(path) else 1

    # A metrics snapshot (the --metrics-out format).
    return 0 if render_one_snapshot(path) else 1


def _worker_command(args: argparse.Namespace) -> int:
    """The ``worker`` subcommand: run one queue drainer until
    signalled (or idle-exit / max-tasks)."""
    from ..service import ServiceWorker
    from ..exec.queue import INFLIGHT_SWEEP_AGE_SECONDS

    worker = ServiceWorker(
        args.queue_dir,
        worker_id=args.worker_id,
        poll_interval=args.poll_interval,
        idle_exit=args.idle_exit,
        max_tasks=args.max_tasks,
        orphan_age=(
            args.orphan_age
            if args.orphan_age is not None
            else INFLIGHT_SWEEP_AGE_SECONDS
        ),
        point_timeout=args.point_timeout,
    )
    worker.install_signal_handlers()
    print(
        f"worker {worker.worker_id} draining {args.queue_dir} "
        f"(poll {args.poll_interval:g}s"
        + (f", idle-exit {args.idle_exit:g}s" if args.idle_exit else "")
        + ")"
    )
    executed = worker.run()
    for note in worker.notes:
        print(f"note: {note}")
    print(
        f"worker {worker.worker_id} exiting: {executed} task(s) executed, "
        f"{worker.failed} failed, {worker.dropped} dropped"
    )
    return 0


def _claims_command(args: argparse.Namespace) -> int:
    """The ``claims`` subcommand: judge the paper's claims on figures
    read from ``--from-json`` or regenerated by :func:`_run_one`.

    Exit 1 when a claim diverges or a regenerated figure has a failed
    point, else 0.
    """
    from .archive import load_archive
    from .paper_claims import CLAIMS, evaluate_claims, render_claims

    figures = load_archive(args.from_json) if args.from_json else {}
    ok = True
    with _trace_sink(args) as sink:
        for figure_id in dict.fromkeys(claim.figure_id for claim in CLAIMS):
            if figure_id not in figures:
                figure, _ = _run_one(figure_id, args, None, sink)
                figures[figure_id] = figure
                ok = ok and not figure.failures
    outcomes = evaluate_claims(figures)
    print(render_claims(outcomes))
    judged = {outcome.claim.claim_id for outcome in outcomes}
    skipped = [claim.claim_id for claim in CLAIMS if claim.claim_id not in judged]
    if skipped:
        print(
            "not judged, their figures lack the points they read: "
            + ", ".join(skipped)
        )
    return 0 if ok and all(outcome.holds for outcome in outcomes) else 1


def _cache_command(args: argparse.Namespace) -> int:
    """The ``cache`` subcommand (currently: ``prune``)."""
    from ..backends.cache import ResultCache

    if args.cache_command == "prune":
        try:
            summary = ResultCache(args.cache_dir).prune(args.max_bytes)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"cache {args.cache_dir}: {summary['entries_removed']} of "
            f"{summary['entries_before']} entry(ies) evicted "
            f"({summary['bytes_removed']} of {summary['bytes_before']} "
            f"bytes); {summary['bytes_after']} bytes remain "
            f"(budget {args.max_bytes})"
        )
        return 0

    raise AssertionError(f"unhandled cache command {args.cache_command!r}")


def _validate_command(args: argparse.Namespace) -> int:
    """The ``validate`` subcommand: run / record / check / list.

    Exit codes follow the run-figure convention: 0 all green, 1 a
    validation failure (a DISAGREE, a failed GOF null, a baseline
    drift), 2 an operational error (backend failure, missing or
    foreign-schema baseline).
    """
    import json as _json

    from ..validate import (
        BaselineError,
        check_baselines,
        default_cases,
        filter_cases_by_backends,
        parse_perturbation,
        record_baselines,
        run_full_suite,
    )

    case_names = (
        [name.strip() for name in args.cases.split(",") if name.strip()]
        if args.cases
        else None
    )
    backend_filter = (
        [name.strip() for name in args.backends.split(",") if name.strip()]
        if getattr(args, "backends", None)
        else None
    )
    cases = default_cases(args.scale)
    if case_names:
        known = {case.name for case in cases}
        unknown = sorted(set(case_names) - known)
        if unknown:
            print(
                f"error: unknown case(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}",
                file=sys.stderr,
            )
            return 2
        cases = [case for case in cases if case.name in case_names]
    if backend_filter is not None:
        try:
            cases = filter_cases_by_backends(cases, backend_filter)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.list_cases:
        for case in cases:
            print(f"{case.name}: {case.description}")
        return 0

    if args.record and args.check:
        print("error: --record and --check are mutually exclusive",
              file=sys.stderr)
        return 2

    try:
        if args.record:
            seeds = args.seeds if args.seeds else [0, 1]
            paths = record_baselines(cases, seeds, args.baselines)
            for path in paths:
                print(f"recorded {path}")
            print(f"{len(paths)} baseline(s) at seeds {seeds}")
            return 0

        if args.check:
            checks = check_baselines(cases, args.baselines, seeds=args.seeds)
            for point in checks:
                print(str(point))
            drifted = [point for point in checks if not point.ok]
            if drifted:
                print(f"{len(drifted)} of {len(checks)} point(s) drifted")
                return 1
            print(f"all {len(checks)} point(s) within tolerance")
            return 0

        perturb = parse_perturbation(args.perturb) if args.perturb else None
        seed = args.seeds[0] if args.seeds else 0
        report = run_full_suite(
            seed=seed,
            scale=args.scale,
            perturb=perturb,
            include_gof=not args.skip_gof,
            include_metamorphic=not args.skip_metamorphic,
            include_differential=not args.skip_differential,
            case_names=case_names,
            backends=backend_filter,
        )
        if args.json:
            print(_json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
        else:
            print(report.render())
        return 0 if report.passed else 1
    except BaselineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _chaos_command(args: argparse.Namespace) -> int:
    """The ``chaos`` subcommand: run a figure clean and faulted.

    Exit codes: 0 when the faulted run recovered (archives agree), 1
    when they disagree, 2 on an operational error (unknown or custom
    figure, backend failure).
    """
    from .chaos import default_chaos_resilience, run_chaos
    from .faultinject import BackendFaultPlan

    spec = FIGURE_SPECS.get(args.figure)
    if spec is None or spec.custom is not None:
        eligible = sorted(
            fid for fid, s in FIGURE_SPECS.items() if s.custom is None
        )
        print(
            f"error: chaos needs a sweep figure, not {args.figure!r}; "
            f"choose from: {', '.join(eligible)}",
            file=sys.stderr,
        )
        return 2
    try:
        fault_plan = BackendFaultPlan(
            backend_id=spec.backend,
            crash_fraction=args.crash,
            crash_attempts=None,
            hang_fraction=args.hang,
            hang_attempts=None,
            hang_seconds=args.hang_seconds,
            slow_fraction=args.slow,
            slow_seconds=args.slow_seconds,
            corrupt_fraction=args.corrupt,
            salt=args.fault_salt,
        )
        degrade_to = (
            tuple(args.degrade_to)
            if args.degrade_to
            else (("san-sim-full",) if spec.backend == "san-sim" else ())
        )
        options = default_chaos_resilience(
            spec.backend,
            fault_plan,
            deadline=args.deadline,
            retries=args.retries,
            degrade_to=degrade_to,
        )
        outcome = run_chaos(
            args.figure,
            preset=args.preset,
            seed=args.seed,
            scale=args.scale,
            max_points=args.max_points,
            fault_plan=fault_plan,
            options=options,
            tolerance=args.tolerance,
            out_dir=args.out,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(outcome.summary_lines()))
    return 0 if outcome.recovered else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "list":
        print("table3")
        for figure_id in FIGURE_SPECS:
            print(figure_id)
        return 0

    if args.command == "backends":
        for backend in all_backends():
            caps = backend.capabilities
            flavor = "exact" if caps.exact else (
                "deterministic" if caps.deterministic else "stochastic"
            )
            print(f"{backend.id}  (v{backend.backend_version}, {flavor})")
            print(f"    metrics: {', '.join(sorted(caps.metrics))}")
            if caps.max_nodes is not None:
                print(f"    max nodes: {caps.max_nodes}")
            print(f"    {caps.description}")
        return 0

    if args.command == "strategies":
        from ..strategies import all_strategies

        for strategy in all_strategies():
            caps = strategy.capabilities
            print(f"{strategy.id}  (v{strategy.strategy_version})")
            if caps.parameters:
                defaults = strategy.params_dict()
                rendered = ", ".join(
                    f"{name}={defaults[name]!r}" if name in defaults else name
                    for name in caps.parameters
                )
                print(f"    parameters: {rendered}")
            print(f"    {caps.description}")
            if caps.reduction:
                print(f"    flat reduction: {caps.reduction}")
        return 0

    if args.command == "table3":
        print(render_table3())
        return 0

    if args.command == "obs":
        return _obs_command(args.path, as_json=args.json)

    if args.command == "worker":
        try:
            return _worker_command(args)
        except (BackendError, ExecutorError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "cache":
        return _cache_command(args)

    if args.command == "validate":
        try:
            return _validate_command(args)
        except BackendError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "chaos":
        try:
            return _chaos_command(args)
        except (BackendError, ExecutorError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "run-figure":
        try:
            with _trace_sink(args) as sink:
                _, ok = _run_one(args.figure, args, None, sink)
        except (BackendError, ExecutorError, StrategyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0 if ok else 1

    if args.command == "dot":
        from ..core import ModelParameters, build_system
        from ..san import to_dot

        system = build_system(ModelParameters(timeout=60.0))
        print(to_dot(system.model, graph_name="coordinated_checkpointing",
                     group_by_submodel=not args.no_clusters))
        return 0

    if args.command == "claims":
        try:
            return _claims_command(args)
        except (BackendError, ExecutorError, StrategyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "compare":
        from .archive import compare_archives

        discrepancies = compare_archives(
            args.reference, args.candidate, rel_tolerance=args.tolerance
        )
        for discrepancy in discrepancies:
            print(str(discrepancy))
        if discrepancies:
            print(f"{len(discrepancies)} discrepancies")
            return 1
        print("archives agree")
        return 0

    if args.command == "design":
        from ..analytical.design import DesignSpec, explore
        from ..core.parameters import MINUTE, YEAR

        spec = DesignSpec(
            processors_per_node=args.processors_per_node,
            mttf_node=args.mttf_years * YEAR,
            mttr=args.mttr_minutes * MINUTE,
            blocking_overhead=args.overhead_seconds,
        )
        print("rank  processors  interval     predicted UWF   predicted TUW")
        for rank, point in enumerate(explore(spec), start=1):
            print(
                f"{rank:>4}  {point.n_processors:>10}  "
                f"{point.interval / MINUTE:6.1f} min   "
                f"{point.useful_work_fraction:13.3f}   "
                f"{point.total_useful_work:13.0f}"
            )
        return 0

    if args.command == "sensitivity":
        from ..analytical.sensitivity import OperatingPoint, rank_parameters
        from ..core.parameters import MINUTE, YEAR

        n_nodes = args.processors / args.processors_per_node
        point = OperatingPoint(
            interval=args.interval_minutes * MINUTE,
            overhead=args.overhead_seconds,
            mtbf=args.mttf_years * YEAR / n_nodes,
            mttr=args.mttr_minutes * MINUTE,
        )
        print(f"operating point: UWF = {point.uwf():.4f} "
              f"({args.processors} processors, system MTBF "
              f"{point.mtbf / MINUTE:.1f} min)")
        print("elasticity of UWF (d ln UWF / d ln parameter):")
        for elasticity in rank_parameters(point):
            print(f"  {elasticity.parameter:<9} {elasticity.value:+8.4f}  "
                  f"(UWF improves if you {elasticity.beneficial_direction} it)")
        return 0

    if args.command == "completion":
        from ..core import ModelParameters, completion_study
        from ..core.parameters import HOUR, YEAR

        params = ModelParameters(
            n_processors=args.processors, mttf_node=args.mttf_years * YEAR
        )
        study = completion_study(
            params,
            args.work_hours,
            replications=args.replications,
            seed=args.seed,
        )
        print(f"job: {args.work_hours:g} h of work on {args.processors} processors")
        if study.times:
            print(f"mean completion: {study.mean_time.mean / HOUR:.1f} h "
                  f"(± {study.mean_time.half_width / HOUR:.1f} h)")
            print(f"p10/p90: {study.percentile(10) / HOUR:.1f} h / "
                  f"{study.percentile(90) / HOUR:.1f} h")
            print(f"mean stretch: {study.mean_stretch:.2f}")
        if study.incomplete:
            print(f"incomplete replications: {study.incomplete}")
        return 0

    if args.command == "run-all":
        stream = io.StringIO()
        all_ok = True
        print(render_table3())
        print()
        with _trace_sink(args) as sink:
            for figure_id in sorted(FIGURE_SPECS):
                figure_args = args
                if FIGURE_SPECS[figure_id].custom is not None:
                    figure_args = _without_sweep_options(figure_id, args)
                try:
                    ok = _run_one(figure_id, figure_args, stream, sink)[1]
                    all_ok = ok and all_ok
                except (BackendError, ExecutorError, StrategyError) as exc:
                    print(f"error: {figure_id}: {exc}\n", file=sys.stderr)
                    all_ok = False
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write("# Regenerated evaluation\n\n")
                handle.write(stream.getvalue())
            print(f"wrote {args.output}")
        return 0 if all_ok else 1

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
