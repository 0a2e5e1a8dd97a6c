"""The evaluation harness: regenerate every table and figure.

Every figure is named once, in :data:`FIGURE_SPECS`, and regenerated
by :func:`run_figure`::

    from repro.experiments import render_figure, run_figure, validate_figure
    result = run_figure("fig4a", preset="quick", seed=1)
    print(render_figure(result))
    for check in validate_figure(result):
        print(check)

Command line: ``python -m repro run-figure fig4a --preset quick``
(``python -m repro list`` prints every id).
"""

from . import figures
from .config import PRESETS, base_parameters, plan_for
from .figures import FIGURE_SPECS, run_figure
from .specs import FigureSpec
from .report import render_ascii_chart, render_figure, render_table3
from .archive import (
    FIGURE_SCHEMA_VERSION,
    Discrepancy,
    compare_archives,
    compare_figures,
    load_archive,
    load_figure,
    save_archive,
    save_figure,
)
from .chaos import ChaosOutcome, run_chaos
from .faultinject import (
    BackendFaultPlan,
    FaultPlan,
    InjectedBackendFault,
    InjectedCrash,
    SweepAborted,
)
from .paper_claims import CLAIMS, Claim, ClaimOutcome, evaluate_claims, render_claims
from .resilience import (
    CheckpointError,
    CheckpointJournal,
    FailureReport,
    ResilienceOptions,
    RetryPolicy,
    SweepSupervisor,
)
from .runner import FigureResult, SweepPoint, run_sweep
from .validation import ShapeCheck, validate_figure

__all__ = [
    "figures",
    "FIGURE_SPECS",
    "FigureSpec",
    "run_figure",
    "PRESETS",
    "base_parameters",
    "plan_for",
    "FigureResult",
    "SweepPoint",
    "run_sweep",
    "render_figure",
    "render_ascii_chart",
    "render_table3",
    "ShapeCheck",
    "validate_figure",
    "FIGURE_SCHEMA_VERSION",
    "save_figure",
    "load_figure",
    "save_archive",
    "load_archive",
    "compare_figures",
    "compare_archives",
    "Discrepancy",
    "CLAIMS",
    "Claim",
    "ClaimOutcome",
    "evaluate_claims",
    "render_claims",
    "ResilienceOptions",
    "RetryPolicy",
    "FailureReport",
    "CheckpointJournal",
    "CheckpointError",
    "SweepSupervisor",
    "FaultPlan",
    "BackendFaultPlan",
    "InjectedCrash",
    "InjectedBackendFault",
    "SweepAborted",
    "ChaosOutcome",
    "run_chaos",
]
