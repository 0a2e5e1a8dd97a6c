"""The paper's evaluation figures (Section 7), declared as specs.

Every figure is a :class:`~repro.experiments.specs.FigureSpec` in
:data:`FIGURE_SPECS` — id, axes, metric, evaluation backend, and a
points builder — and :func:`run_figure` regenerates any of them by id.
The table is the one list of figures: every command and benchmark
names a figure by its key there.

Figures that are not parameter sweeps (the exact Figure 3 chain, the
coordination-law cross-validation, the Section 7.1 headline) plug a
``custom`` callable into their spec; they still go through the
backend registry (:mod:`repro.backends`) rather than importing
solvers directly.

The shapes — not the absolute job-unit magnitudes — are the
reproduction criteria (see DESIGN.md); the benchmark suite asserts
them via :mod:`repro.experiments.validation`.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from ..obs import RunManifest, metrics as obs_metrics
from ..backends import (
    BackendError,
    COORDINATION_ONLY_USEFUL_FRACTION,
    EvaluationPlan,
    MEAN_COORDINATION_TIME,
    get_backend,
)
from ..core.parameters import HOUR, MINUTE, YEAR, CoordinationMode, ModelParameters
from .config import (
    INTERVAL_GRID_MIN,
    PROCESSOR_GRID,
    PROPAGATION_FACTOR_GRID,
    PROPAGATION_PROBABILITY_GRID,
    base_parameters,
    plan_for,
)
from .resilience import ResilienceOptions
from .runner import FigureResult, SweepPoint, run_sweep
from .specs import FigureSpec

__all__ = ["FIGURE_SPECS", "run_figure"]


# ----------------------------------------------------------------------
# Point builders (Figure 4: base-model sensitivity study)
# ----------------------------------------------------------------------
def _fig4a_points() -> List[SweepPoint]:
    base = base_parameters()
    return [
        SweepPoint(
            series=f"MTTF (yrs) = {mttf_years:g}",
            x=n,
            params=base.with_overrides(
                n_processors=n, mttf_node=mttf_years * YEAR
            ),
        )
        for mttf_years in (0.125, 0.25, 0.5, 1, 2)
        for n in PROCESSOR_GRID
    ]


def _fig4b_points() -> List[SweepPoint]:
    base = base_parameters()
    return [
        SweepPoint(
            series=f"processors = {n}",
            x=interval_min,
            params=base.with_overrides(
                n_processors=n, checkpoint_interval=interval_min * MINUTE
            ),
        )
        for n in PROCESSOR_GRID
        for interval_min in INTERVAL_GRID_MIN
    ]


def _fig4c_points() -> List[SweepPoint]:
    base = base_parameters()
    return [
        SweepPoint(
            series=f"MTTR (mins) = {mttr_min}",
            x=n,
            params=base.with_overrides(n_processors=n, mttr=mttr_min * MINUTE),
        )
        for mttr_min in (10, 20, 40, 80)
        for n in PROCESSOR_GRID
    ]


def _fig4d_points() -> List[SweepPoint]:
    base = base_parameters()
    return [
        SweepPoint(
            series=f"MTTR (mins) = {mttr_min}",
            x=interval_min,
            params=base.with_overrides(
                mttr=mttr_min * MINUTE, checkpoint_interval=interval_min * MINUTE
            ),
        )
        for mttr_min in (10, 20, 40, 80)
        for interval_min in INTERVAL_GRID_MIN
    ]


def _fig4e_points() -> List[SweepPoint]:
    base = base_parameters()
    return [
        SweepPoint(
            series=f"chkpt_interval (mins) = {interval_min}",
            x=n,
            params=base.with_overrides(
                n_processors=n, checkpoint_interval=interval_min * MINUTE
            ),
        )
        for interval_min in INTERVAL_GRID_MIN
        for n in PROCESSOR_GRID
    ]


def _fig4f_points() -> List[SweepPoint]:
    base = base_parameters()
    return [
        SweepPoint(
            series=f"MTTF per node (yrs) = {mttf_years}",
            x=interval_min,
            params=base.with_overrides(
                mttf_node=mttf_years * YEAR,
                checkpoint_interval=interval_min * MINUTE,
            ),
        )
        for mttf_years in (1, 2, 4, 8, 16)
        for interval_min in INTERVAL_GRID_MIN
    ]


def _nodes_points(
    processors_per_node: int, node_grid: Sequence[int]
) -> List[SweepPoint]:
    base = base_parameters()
    return [
        SweepPoint(
            series=f"MTTF per node (yrs) = {mttf_years}",
            x=nodes,
            params=base.with_overrides(
                n_processors=nodes * processors_per_node,
                processors_per_node=processors_per_node,
                mttf_node=mttf_years * YEAR,
            ),
        )
        for mttf_years in (1, 2)
        for nodes in node_grid
    ]


# ----------------------------------------------------------------------
# Figure 5: coordination only (no failures, no timeout)
# ----------------------------------------------------------------------
#: X grid of Figure 5: 1 .. ~1.07e9 processors.
_FIG5_GRID = [4**k for k in range(0, 16)]
#: Mean quiesce times (seconds) of Figure 5's three curves.
_FIG5_MTTQS = (10.0, 2.0, 0.5)


def _fig5_params(n: int, mttq: float) -> ModelParameters:
    """One Figure 5 configuration: coordination is the only overhead.

    Failures are disabled (per-node MTTF of 10^12 years — at 2^30
    processors the *system* failure rate still matters, so the margin
    must be enormous) and the coordination time is the
    max-of-``n``-exponentials order statistic. To keep the checkpoint
    I/O path identical across the entire range (1 processor to 2^30),
    each "node" carries one processor and the dump/write latencies are
    pinned to the paper's full-group values (46.8 s / 131 s) by
    scaling the per-node checkpoint size with the group size of one.
    """
    return ModelParameters(
        n_processors=n,
        processors_per_node=1,
        mttf_node=1e12 * YEAR,
        mttq=mttq,
        coordination_mode=CoordinationMode.MAX_OF_EXPONENTIALS,
        coordination_over="processors",
        compute_nodes_per_io_node=1,
        checkpoint_size_per_node=16.384e9,  # keeps dump at 46.8 s
        compute_fraction=1.0,
        timeout=None,
    )


def _fig5_points() -> List[SweepPoint]:
    return [
        SweepPoint(series=f"MTTQ={mttq:g}s", x=n, params=_fig5_params(n, mttq))
        for mttq in _FIG5_MTTQS
        for n in _FIG5_GRID
    ]


def _fig5_notes(figure: FigureResult) -> None:
    """Attach each curve's closed-form prediction (via the
    ``analytical`` backend) as a note."""
    analytical = get_backend("analytical")
    plan = EvaluationPlan(metrics=(COORDINATION_ONLY_USEFUL_FRACTION,))
    for mttq in _FIG5_MTTQS:
        predicted = [
            analytical.evaluate(_fig5_params(n, mttq), plan)
            .metric(COORDINATION_ONLY_USEFUL_FRACTION)
            .mean
            for n in _FIG5_GRID
        ]
        figure.notes.append(
            f"analytic MTTQ={mttq:g}s: "
            + ", ".join(f"{value:.4f}" for value in predicted)
        )


# ----------------------------------------------------------------------
# Figure 6: coordination + timeout + failures
# ----------------------------------------------------------------------
def _fig6_points() -> List[SweepPoint]:
    base = base_parameters().with_overrides(
        mttf_node=3 * YEAR,
        mttq=10.0,
        coordination_mode=CoordinationMode.MAX_OF_EXPONENTIALS,
    )
    points: List[SweepPoint] = []
    for n in PROCESSOR_GRID:
        points.append(
            SweepPoint(
                series="no coordination",
                x=n,
                params=base.with_overrides(
                    n_processors=n,
                    coordination_mode=CoordinationMode.AGGREGATE_EXPONENTIAL,
                ),
            )
        )
        points.append(
            SweepPoint(
                series="no timeout",
                x=n,
                params=base.with_overrides(n_processors=n, timeout=None),
            )
        )
        for timeout in (120, 100, 80, 60, 40, 20):
            points.append(
                SweepPoint(
                    series=f"timeout={timeout}s",
                    x=n,
                    params=base.with_overrides(n_processors=n, timeout=float(timeout)),
                )
            )
    return points


# ----------------------------------------------------------------------
# Figures 7 and 8: correlated failures
# ----------------------------------------------------------------------
def _fig7_points() -> List[SweepPoint]:
    base = base_parameters().with_overrides(
        n_processors=262144, mttf_node=3 * YEAR
    )
    return [
        SweepPoint(
            series=f"frate_correlated_times={r}",
            x=p_e,
            params=base.with_overrides(
                prob_correlated_failure=p_e, frate_correlated_factor=float(r)
            ),
        )
        for r in PROPAGATION_FACTOR_GRID
        for p_e in PROPAGATION_PROBABILITY_GRID
    ]


def _strategy_compare_points() -> List[SweepPoint]:
    """The strategy-comparison sweep: useful work fraction over the
    lower half of the paper's processor grid at base parameters.

    One curve; the *strategy* is plan-wide (``--strategy`` /
    ``run_figure(..., strategy=...)``), so the comparison figure is
    produced by running this same sweep once per strategy — the
    archives differ only by the strategy recorded in their manifests
    and notes.
    """
    base = base_parameters()
    return [
        SweepPoint(
            series="useful work fraction",
            x=n,
            params=base.with_overrides(n_processors=n),
        )
        for n in PROCESSOR_GRID[:4]
    ]


def _fig8_points() -> List[SweepPoint]:
    base = base_parameters().with_overrides(mttf_node=3 * YEAR)
    points: List[SweepPoint] = []
    for n in PROCESSOR_GRID:
        points.append(
            SweepPoint(
                series="without correlated failure",
                x=n,
                params=base.with_overrides(n_processors=n),
            )
        )
        points.append(
            SweepPoint(
                series="with correlated failure",
                x=n,
                params=base.with_overrides(
                    n_processors=n,
                    generic_correlated_coefficient=0.0025,
                    frate_correlated_factor=400.0,
                ),
            )
        )
    return points


# ----------------------------------------------------------------------
# Custom (non-sweep) figures
# ----------------------------------------------------------------------
def _fig3_chain(
    preset: str = "standard",
    seed: int = 0,
    processes: Optional[int] = None,
    resilience: Optional[ResilienceOptions] = None,
) -> FigureResult:
    """The Section 6 birth–death chain, solved exactly for the paper's
    worked example (n = 1024, p = 0.3, MTTR = 10 min, MTTF = 25 yrs,
    giving r ≈ 550)."""
    from ..analytical import markov

    n, p, mttr, mttf = 1024, 0.3, 10 * MINUTE, 25 * YEAR
    lam, mu = 1.0 / mttf, 1.0 / mttr
    r = markov.frate_factor(p, mu, n, lam)
    solution = markov.solve_birth_death(n, lam, r, mu, max_failures=8)
    figure = FigureResult(
        "fig3",
        "Birth-death Markov process of correlated failures (exact steady state)",
        "failures since last successful recovery",
        "useful_work_fraction",
        backend="ctmc",
    )
    figure.series["P(F_i)"] = [
        (
            float(i),
            solution.probability_of(lambda m, i=i: m["failures"] == i),
            0.0,
        )
        for i in range(5)
    ]
    figure.notes.append(f"derived frate_correlated_factor r = {r:.1f} (paper: ~600)")
    figure.notes.append(
        f"conditional follow-on probability implied by r: "
        f"{markov.conditional_probability(r, mu, n, lam):.3f} (target {p})"
    )
    figure.notes.append(
        f"expected recoveries per burst: {markov.expected_recoveries_per_burst(p):.3f}"
    )
    return figure


def _coordination_law(
    preset: str = "standard",
    seed: int = 0,
    processes: Optional[int] = None,
    resilience: Optional[ResilienceOptions] = None,
) -> FigureResult:
    """Cross-validation of the Section 5 coordination law against the
    message-level cluster simulator: measured mean coordination time
    vs ``MTTQ * H_n`` for increasing node counts."""
    durations = {"quick": 10 * HOUR, "standard": 40 * HOUR, "full": 100 * HOUR}
    duration = durations.get(preset, 40 * HOUR)
    cluster = get_backend("cluster")
    analytical = get_backend("analytical")
    figure = FigureResult(
        "coordination-law",
        "Cluster-simulator coordination time vs max-of-exponentials law",
        "number of nodes",
        "useful_work_fraction",
        backend="cluster",
    )
    plan = EvaluationPlan(
        metrics=(MEAN_COORDINATION_TIME,), seed=seed, duration=duration
    )
    measured = []
    predicted = []
    for nodes in (64, 128, 256, 512, 1024):
        params = ModelParameters(
            n_processors=nodes * 8,
            processors_per_node=8,
            mttf_node=1000 * YEAR,
            mttq=10.0,
        )
        # Every node count shares the figure's seed deliberately: the
        # law is about the n-dependence, not seed-to-seed noise.
        result = cluster.evaluate(params, plan)
        measured.append(
            (float(nodes), result.metric(MEAN_COORDINATION_TIME).mean, 0.0)
        )
        # The closed form needs the order-statistic coordination mode
        # (the cluster protocol *measures* it regardless of the flag).
        law = analytical.evaluate(
            params.with_overrides(
                coordination_mode=CoordinationMode.MAX_OF_EXPONENTIALS,
                coordination_over="nodes",
            ),
            plan,
        )
        predicted.append(
            (float(nodes), law.metric(MEAN_COORDINATION_TIME).mean, 0.0)
        )
    figure.series["cluster simulator (measured)"] = measured
    figure.series["MTTQ * H_n (predicted)"] = predicted
    return figure


def _section_7_1(
    preset: str = "standard",
    seed: int = 0,
    processes: Optional[int] = None,
    resilience: Optional[ResilienceOptions] = None,
) -> FigureResult:
    """The Section 7.1 headline: the optimum processor count for the
    base configuration and the useful work fraction at the peak."""
    figure_a = run_figure(
        "fig4a", preset=preset, seed=seed, processes=processes,
        resilience=resilience,
    )
    label = "MTTF (yrs) = 1"
    peak_x = figure_a.peak_x(label)
    points = dict(
        (x, (y, h)) for x, y, h in figure_a.series[label]
    )
    peak_tuw, _ = points[peak_x]
    headline = FigureResult(
        "section7.1",
        "Optimum processor count, base model (MTTF 1 yr, MTTR 10 min, 30 min interval)",
        "number of processors",
        "total_useful_work",
        backend=figure_a.backend,
    )
    headline.series[label] = figure_a.series[label]
    headline.notes.append(
        f"optimum processors = {int(peak_x)} (paper: 131072 = 128K)"
    )
    headline.notes.append(
        f"useful work fraction at peak = {peak_tuw / peak_x:.3f} (paper: 0.427)"
    )
    return headline


# ----------------------------------------------------------------------
# The declarative table, and the generic runner
# ----------------------------------------------------------------------
#: Every figure of the evaluation, declared, in the order ``repro list``
#: prints them.
FIGURE_SPECS: Dict[str, FigureSpec] = {
    spec.figure_id: spec
    for spec in (
        FigureSpec("section7.1", custom=_section_7_1),
        FigureSpec(
            "fig4a",
            "Useful work vs number of processors for different MTTFs",
            "number of processors",
            "total_useful_work",
            _fig4a_points,
        ),
        FigureSpec(
            "fig4b",
            "Useful work vs checkpoint interval for different numbers of processors",
            "checkpoint interval (mins)",
            "total_useful_work",
            _fig4b_points,
        ),
        FigureSpec(
            "fig4c",
            "Useful work vs number of processors for different MTTRs",
            "number of processors",
            "total_useful_work",
            _fig4c_points,
        ),
        FigureSpec(
            "fig4d",
            "Useful work vs checkpoint interval for different MTTRs",
            "checkpoint interval (mins)",
            "total_useful_work",
            _fig4d_points,
        ),
        FigureSpec(
            "fig4e",
            "Useful work vs number of processors for different checkpoint intervals",
            "number of processors",
            "total_useful_work",
            _fig4e_points,
        ),
        FigureSpec(
            "fig4f",
            "Useful work vs checkpoint interval for different MTTFs",
            "checkpoint interval (mins)",
            "total_useful_work",
            _fig4f_points,
        ),
        FigureSpec(
            "fig4g",
            "Total useful work vs number of nodes, 32 processors/node",
            "number of nodes",
            "total_useful_work",
            lambda: _nodes_points(32, (8192, 16384, 32768)),
        ),
        FigureSpec(
            "fig4h",
            "Total useful work vs number of nodes, 16 processors/node",
            "number of nodes",
            "total_useful_work",
            lambda: _nodes_points(16, (8192, 16384, 32768, 65536)),
        ),
        FigureSpec(
            "fig5",
            "Useful work fraction with coordination (no timeouts or failures)",
            "number of processors",
            "useful_work_fraction",
            _fig5_points,
            post=_fig5_notes,
        ),
        FigureSpec(
            "fig6",
            "Useful work fraction with coordination and timeout (with failures)",
            "number of processors",
            "useful_work_fraction",
            _fig6_points,
        ),
        FigureSpec(
            "fig7",
            "Impact of correlated failures due to error propagation",
            "probability of correlated failure",
            "useful_work_fraction",
            _fig7_points,
        ),
        FigureSpec(
            "fig8",
            "Impact of generic correlated failures",
            "number of processors",
            "useful_work_fraction",
            _fig8_points,
        ),
        FigureSpec("fig3", backend="ctmc", custom=_fig3_chain),
        FigureSpec("coordination-law", backend="cluster", custom=_coordination_law),
        FigureSpec(
            "strategy-compare",
            "Useful work fraction vs processors per checkpointing strategy",
            "number of processors",
            "useful_work_fraction",
            _strategy_compare_points,
        ),
    )
}


def run_figure(
    figure_id: str,
    preset: str = "standard",
    seed: int = 0,
    processes: Optional[int] = None,
    resilience: Optional[ResilienceOptions] = None,
    backend: Optional[str] = None,
    strategy: Optional[str] = None,
    executor=None,
    queue_dir: Optional[str] = None,
    max_points: Optional[int] = None,
) -> FigureResult:
    """Regenerate one figure from its spec.

    ``backend`` overrides the spec's declared evaluation backend for
    sweep figures (``"san-sim-full"`` runs the same simulation on the
    full-rescan reference kernel); custom figures are bound to their
    solver and reject an override with
    :class:`~repro.backends.base.BackendError`.

    ``executor`` / ``queue_dir`` select the execution substrate the
    sweep runs on (``"serial"``, ``"pool"``, ``"queue"`` or a
    ready-made :class:`~repro.exec.base.Executor`; see
    :func:`~repro.experiments.runner.run_sweep`), and ``max_points``
    truncates the sweep to its first N declared points (the CI parity
    job's 4-point slice; below 1 raises :class:`ValueError`). All three
    are sweep-figure knobs, rejected for custom figures, whose solvers
    do not run point sweeps.

    ``strategy`` replaces the preset plan's checkpointing strategy
    (the paper's ``"flat"`` protocol) with a spec string (see
    :mod:`repro.strategies`), e.g. ``"incremental"`` or
    ``"adaptive:failure_rate=1e-4"``; it is a sweep-figure knob,
    rejected for custom figures. The resulting plan
    carries the canonical spec into every task's cache key and the run
    manifest, and the figure notes record any non-flat strategy, so a
    zoo archive is never mistaken for (or cached as) a flat one.

    Each refusal for a custom figure is a
    :class:`~repro.backends.base.BackendError` naming the arguments
    that were passed (``run-all`` runs custom figures without them).

    Every returned figure — sweep or custom — carries a
    :class:`~repro.obs.RunManifest` on ``figure.manifest`` recording
    provenance; custom figures get a minimal one (backend, seed,
    preset, wall clock, metrics snapshot) since they have no sweep
    bookkeeping to report.
    """
    try:
        spec = FIGURE_SPECS[figure_id]
    except KeyError:
        raise ValueError(
            f"unknown figure {figure_id!r}; known: "
            f"{', '.join(sorted(FIGURE_SPECS))}"
        ) from None
    if spec.custom is not None:
        if backend is not None and backend != spec.backend:
            raise BackendError(
                f"figure {figure_id!r} is computed by the {spec.backend!r} "
                "backend and does not support a backend override"
            )
        passed = [
            name
            for name, value in (
                ("strategy", strategy),
                ("executor", executor),
                ("queue_dir", queue_dir),
                ("max_points", max_points),
            )
            if value is not None
        ]
        if passed:
            raise BackendError(
                f"figure {figure_id!r} is not a SAN sweep and takes no "
                f"{' or '.join(passed)} override"
            )
        start_clock = time.monotonic()
        figure = spec.custom(
            preset=preset, seed=seed, processes=processes, resilience=resilience
        )
        if figure.manifest is None:
            figure.manifest = RunManifest(
                figure_id=figure.figure_id,
                backend=figure.backend,
                metric=figure.metric,
                seed=seed,
                preset=preset,
                wall_clock_seconds=time.monotonic() - start_clock,
                metrics=obs_metrics.registry().snapshot(),
                notes=list(figure.notes),
            )
        return figure
    plan = plan_for(preset)
    if strategy is not None:
        # replace() re-runs plan validation, so an unknown or
        # malformed --strategy surfaces here as a StrategyError.
        plan = replace(plan, strategy=strategy)
    points = list(spec.points())
    if max_points is not None:
        if max_points < 1:
            raise ValueError(f"max_points must be >= 1, got {max_points}")
        points = points[:max_points]
    figure = run_sweep(
        spec.figure_id,
        spec.title,
        spec.x_label,
        spec.metric,
        points,
        plan,
        seed=seed,
        processes=processes,
        resilience=resilience,
        backend=backend if backend is not None else spec.backend,
        executor=executor,
        queue_dir=queue_dir,
    )
    if spec.post is not None:
        spec.post(figure)
    if figure.manifest is not None:
        figure.manifest.preset = preset
        figure.manifest.notes = list(figure.notes)
    return figure
