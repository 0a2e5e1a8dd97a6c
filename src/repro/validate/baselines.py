"""Golden statistical baselines: record once, check for drift forever.

A baseline file (``baselines/VALIDATE_<case>.json``) freezes what
every backend answered for one differential case — mean, confidence
half-width, replication count and oracle kind per backend, per root
seed — stamped with the baseline schema version, the package version,
the seed policy and the tolerance policy, the same attribution
discipline as the PR-4 run manifests.

``record`` evaluates the cases fresh and (atomically) writes the
files; ``check`` re-evaluates and reports **per-point drift**: the
absolute difference of each backend/seed point against its recorded
value, judged against the case's tolerance band. Because the seed
policy is deterministic, a healthy checkout reproduces every point
bit-for-bit; any drift at all localises a behavioural change to one
backend at one configuration and seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from .._atomic import atomic_write
from .._version import __version__
from .differential import DifferentialCase, run_case
from .stats import SampleSummary

__all__ = [
    "BASELINE_SCHEMA_VERSION",
    "BASELINE_PREFIX",
    "BaselineError",
    "PointCheck",
    "baseline_path",
    "record_baselines",
    "check_baselines",
]

#: Version of the baseline JSON layout; loaders reject other versions.
BASELINE_SCHEMA_VERSION = 1

#: File-name prefix of every baseline this module owns.
BASELINE_PREFIX = "VALIDATE_"

#: How root seeds become replication seeds, recorded so a future
#: reader can tell whether a drift is a policy change or a bug.
SEED_POLICY = "StreamRegistry(seed).spawn(replication).seed"


class BaselineError(Exception):
    """A baseline file is missing, unreadable, or foreign-schema."""


@dataclass(frozen=True)
class PointCheck:
    """Drift verdict for one backend at one case and seed."""

    case: str
    seed: int
    backend: str
    difference: float
    band: float
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        marker = "ok" if self.ok else "DRIFT"
        extra = f" {self.detail}" if self.detail else ""
        return (
            f"[{marker}] {self.case} seed={self.seed} {self.backend}: "
            f"|drift|={self.difference:.3g} band={self.band:.3g}{extra}"
        )


def baseline_path(directory: "str | Path", case_name: str) -> Path:
    """Where the named case's baseline lives under ``directory``."""
    return Path(directory) / f"{BASELINE_PREFIX}{case_name}.json"


def _summary_payload(summary: SampleSummary) -> Dict[str, object]:
    return {
        "mean": summary.mean,
        "half_width": summary.half_width,
        "samples": summary.samples,
        "validated": summary.validated,
    }


def _summary_from_payload(payload: Dict[str, object]) -> SampleSummary:
    return SampleSummary(
        mean=float(payload["mean"]),
        half_width=float(payload.get("half_width", 0.0)),
        samples=int(payload.get("samples", 0)),
        validated=bool(payload.get("validated", True)),
    )


def _write_atomic(path: Path, payload: Dict[str, object]) -> None:
    """Temp file + fsync + rename, the manifest crash discipline."""
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(
        str(path), json.dumps(payload, indent=2, sort_keys=True) + "\n",
        prefix=path.name + ".",
    )


def _load_baseline(path: Path) -> Dict[str, object]:
    if not path.exists():
        raise BaselineError(
            f"no baseline at {path}; record one with "
            f"'repro validate --record'"
        )
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise BaselineError(f"baseline {path} is not valid JSON: {exc}") from exc
    version = payload.get("schema_version")
    if version != BASELINE_SCHEMA_VERSION:
        raise BaselineError(
            f"baseline {path} has schema version {version!r}; this package "
            f"reads version {BASELINE_SCHEMA_VERSION}"
        )
    return payload


def record_baselines(
    cases: Sequence[DifferentialCase],
    seeds: Iterable[int],
    directory: "str | Path",
) -> List[Path]:
    """Evaluate every case at every seed and freeze the answers.

    Existing baselines for the same cases are replaced wholesale —
    a recording *is* the new truth; partial merges would let stale
    seeds linger unnoticed.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("recording a baseline needs at least one seed")
    paths: List[Path] = []
    for case in cases:
        entries: Dict[str, Dict[str, object]] = {}
        skipped: Dict[str, str] = {}
        for seed in seeds:
            outcome = run_case(case, seed=seed)
            entries[str(seed)] = {
                backend: _summary_payload(summary)
                for backend, summary in sorted(outcome.summaries.items())
            }
            skipped = dict(outcome.skipped)
        payload: Dict[str, object] = {
            "schema_version": BASELINE_SCHEMA_VERSION,
            "repro_version": __version__,
            "case": case.name,
            "description": case.description,
            "metric": case.metric,
            "seed_policy": SEED_POLICY,
            "policy": {
                "alpha": case.policy.alpha,
                "rel_tolerance": case.policy.rel_tolerance,
                "abs_tolerance": case.policy.abs_tolerance,
            },
            "plan": {
                "warmup": case.plan.simulation.warmup,
                "observation": case.plan.simulation.observation,
                "replications": case.plan.simulation.replications,
            },
            "skipped": skipped,
            "entries": entries,
        }
        path = baseline_path(directory, case.name)
        _write_atomic(path, payload)
        paths.append(path)
    return paths


def check_baselines(
    cases: Sequence[DifferentialCase],
    directory: "str | Path",
    seeds: Optional[Iterable[int]] = None,
) -> List[PointCheck]:
    """Re-evaluate and compare every point against its recording.

    With ``seeds=None`` every recorded seed is checked. A missing
    baseline file raises :class:`BaselineError` (that is setup rot,
    not drift); a missing backend or seed *inside* a file is reported
    as a failing point.
    """
    checks: List[PointCheck] = []
    requested = None if seeds is None else [str(s) for s in seeds]
    for case in cases:
        payload = _load_baseline(baseline_path(directory, case.name))
        entries = dict(payload.get("entries", {}))
        seed_keys = requested if requested is not None else sorted(entries)
        for seed_key in seed_keys:
            seed = int(seed_key)
            stored = entries.get(seed_key)
            if stored is None:
                checks.append(
                    PointCheck(
                        case.name, seed, "*", float("nan"), 0.0, False,
                        detail=f"seed {seed} not recorded in the baseline",
                    )
                )
                continue
            outcome = run_case(case, seed=seed)
            for backend, recorded_payload in sorted(stored.items()):
                recorded = _summary_from_payload(dict(recorded_payload))
                fresh = outcome.summaries.get(backend)
                band = case.policy.band(recorded.mean, recorded.mean)
                if fresh is None:
                    reason = outcome.skipped.get(backend, "produced no result")
                    checks.append(
                        PointCheck(
                            case.name, seed, backend, float("nan"), band,
                            False, detail=f"backend missing: {reason}",
                        )
                    )
                    continue
                difference = abs(fresh.mean - recorded.mean)
                details: List[str] = []
                ok = difference <= band
                if fresh.samples != recorded.samples:
                    ok = False
                    details.append(
                        f"replications changed "
                        f"{recorded.samples} -> {fresh.samples}"
                    )
                if difference > 0:
                    details.append("non-bit-identical rerun")
                checks.append(
                    PointCheck(
                        case.name, seed, backend, difference, band, ok,
                        detail="; ".join(details),
                    )
                )
            for backend in sorted(set(outcome.summaries) - set(stored)):
                checks.append(
                    PointCheck(
                        case.name, seed, backend, float("nan"), 0.0, False,
                        detail="backend produced a result but has no "
                        "recorded point; re-record the baseline",
                    )
                )
    return checks
