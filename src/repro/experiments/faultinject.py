"""Deterministic fault injection for the sweep runner.

The paper studies what happens when failures strike *during*
checkpointing; this module lets the test suite (and the CI smoke job)
do the same to the harness itself. A fault plan is attached to
:class:`~repro.experiments.resilience.ResilienceOptions` (its
``fault_plan``), and :func:`~repro.exec.task.execute_task` calls its
``before_task`` / ``after_task`` hook pair around every evaluation.
A :class:`FaultPlan` injects, deterministically by point index and
attempt number:

* **crashes** — the worker raises :class:`InjectedCrash` before
  simulating, exercising the retry/backoff path;
* **hangs** — the worker sleeps past the point timeout, exercising
  the pool's hang kill and pool replacement;
* **aborts** — the supervisor raises :class:`SweepAborted` after the
  k-th completed point has been journaled, simulating the sweep
  process being killed mid-run (the resume path's test vector);

plus journal-corruption helpers (:func:`corrupt_journal_tail`,
:func:`corrupt_journal_line`, :func:`truncate_journal`) that model a
torn write or bit rot in the checkpoint file itself.

:class:`BackendFaultPlan` is the *backend-level* counterpart through
the same hooks: raise / hang / corrupt-result faults,
deterministic by backend id, evaluation key (a seed-free request
digest, see :func:`evaluation_key`) and attempt number. The ``repro
chaos`` CLI subcommand runs a figure under one and asserts the
archive still matches a clean run.

Everything here is picklable: the plans ride into worker processes
inside the task arguments.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

from ..backends.base import EvaluationPlan, plan_key_dict
from ..backends.canonical import canonical_json
from ..core.parameters import ModelParameters

__all__ = [
    "BackendFaultPlan",
    "FaultPlan",
    "InjectedBackendFault",
    "InjectedCrash",
    "SweepAborted",
    "corrupt_journal_line",
    "corrupt_journal_tail",
    "evaluation_key",
    "truncate_journal",
]


class InjectedCrash(RuntimeError):
    """An artificial worker failure raised by a :class:`FaultPlan`."""


class InjectedBackendFault(RuntimeError):
    """An artificial backend failure raised by a :class:`BackendFaultPlan`."""


class SweepAborted(RuntimeError):
    """The supervisor was told to die mid-sweep (simulated kill)."""


@dataclass
class FaultPlan:
    """A deterministic schedule of injected faults.

    Attributes
    ----------
    crashes:
        ``point index -> attempts`` on which the worker raises
        :class:`InjectedCrash`.
    hangs:
        ``point index -> attempts`` on which the worker sleeps for
        ``hang_seconds`` before proceeding.
    hang_seconds:
        How long an injected hang sleeps. Pick it well above the
        supervisor's ``point_timeout`` to model a genuine hang, or
        below it to model a slow-but-successful point.
    abort_after:
        Raise :class:`SweepAborted` in the supervisor once this many
        points have completed (and been journaled) in the current run.
    """

    crashes: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    hangs: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    hang_seconds: float = 3600.0
    abort_after: Optional[int] = None

    # -- construction helpers (chainable) ------------------------------
    def crash(self, index: int, attempts: Sequence[int] = (0,)) -> "FaultPlan":
        """Crash the given point on the given attempt numbers."""
        self.crashes[index] = tuple(attempts)
        return self

    def hang(
        self,
        index: int,
        attempts: Sequence[int] = (0,),
        seconds: Optional[float] = None,
    ) -> "FaultPlan":
        """Hang the given point on the given attempt numbers."""
        self.hangs[index] = tuple(attempts)
        if seconds is not None:
            self.hang_seconds = float(seconds)
        return self

    def abort_after_points(self, count: int) -> "FaultPlan":
        """Kill the sweep after ``count`` completed points."""
        self.abort_after = int(count)
        return self

    # -- hooks ----------------------------------------------------------
    def before_task(self, task) -> None:
        """Evaluation hook: :meth:`before_point` for the task's point
        index and attempt."""
        self.before_point(task.index, task.attempt)

    def after_task(self, task, result):
        """Evaluation hook: results pass through unchanged."""
        return result

    def before_point(self, index: int, attempt: int) -> None:
        """Worker-side hook, called before a point is simulated."""
        if attempt in self.hangs.get(index, ()):
            time.sleep(self.hang_seconds)
        if attempt in self.crashes.get(index, ()):
            raise InjectedCrash(
                f"injected crash at point {index}, attempt {attempt}"
            )

    def after_success(self, completed_count: int) -> None:
        """Supervisor-side hook, called after a point is journaled."""
        if self.abort_after is not None and completed_count >= self.abort_after:
            raise SweepAborted(
                f"injected abort after {completed_count} completed point(s)"
            )


def evaluation_key(
    backend_id: str, params: ModelParameters, plan: EvaluationPlan
) -> str:
    """A stable digest identifying one evaluation request, seed excluded.

    Backend fault plans key on it so every retry of the same request
    faces the same fault decision: the fault models the backend's
    behaviour for that request, not one sample path.
    """
    identity: Dict[str, object] = {"backend": backend_id}
    identity.update(plan_key_dict(params, plan.with_seed(0)))
    return hashlib.blake2b(
        canonical_json(identity).encode("utf-8"), digest_size=16
    ).hexdigest()


def _unit_interval(token: str) -> float:
    """A deterministic value in ``[0, 1)`` hashed from ``token``."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2**64


@dataclass
class BackendFaultPlan:
    """A deterministic schedule of *backend-level* injected faults.

    Applied around each evaluation attempt via :meth:`before_task` /
    :meth:`after_task`, which key the request with
    :func:`evaluation_key` and call :meth:`before_evaluate` /
    :meth:`after_evaluate`. Whether a given evaluation is afflicted is
    decided by hashing ``(salt, fault kind, evaluation key)`` into
    ``[0, 1)`` and comparing against the configured fraction — the
    same request is afflicted identically in every run, every process,
    and (because the evaluation key excludes the seed) every retry
    attempt, while distinct requests are afflicted independently.

    Attributes
    ----------
    backend_id:
        Only afflict this backend id (``None`` afflicts every
        backend). Pinning the plan to the primary backend while the
        sweep falls back to an unafflicted one is how the chaos smoke
        stays value-preserving.
    crash_fraction / crash_attempts:
        Fraction of evaluations that raise
        :class:`InjectedBackendFault`, on the listed attempt numbers
        (``None`` = every attempt, the "permanently broken" shape that
        only a fallback backend escapes).
    hang_fraction / hang_attempts / hang_seconds:
        Fraction of evaluations that sleep ``hang_seconds`` (above 0)
        before evaluating — past the point timeout this models a
        genuine hang the pool must kill; below it, a slow-but-successful
        call.
    corrupt_fraction / corrupt_attempts / corrupt_factor:
        Fraction of evaluations whose *result* is corrupted: every
        metric mean is multiplied by ``corrupt_factor``. The result
        still reports success — only a downstream tolerance check can
        catch it, which is exactly what the chaos comparison is for.
    salt:
        Folded into every affliction hash; vary it to draw a different
        deterministic fault pattern at the same fractions.
    """

    backend_id: Optional[str] = None
    crash_fraction: float = 0.0
    crash_attempts: Optional[Tuple[int, ...]] = None
    hang_fraction: float = 0.0
    hang_attempts: Optional[Tuple[int, ...]] = None
    hang_seconds: float = 3600.0
    corrupt_fraction: float = 0.0
    corrupt_attempts: Optional[Tuple[int, ...]] = (0,)
    corrupt_factor: float = 10.0
    salt: str = ""

    def __post_init__(self) -> None:
        for name in ("crash_fraction", "hang_fraction", "corrupt_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not self.hang_seconds > 0:
            raise ValueError(
                f"hang_seconds must be > 0, got {self.hang_seconds}"
            )
        for name in ("crash_attempts", "hang_attempts", "corrupt_attempts"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, tuple(int(a) for a in value))

    # -- affliction decisions ------------------------------------------
    def _afflicted(self, kind: str, fraction: float, key: str) -> bool:
        if fraction <= 0.0:
            return False
        return _unit_interval(f"{self.salt}/{kind}/{key}") < fraction

    def _applies(self, backend_id: str, attempt: int,
                 attempts: Optional[Tuple[int, ...]]) -> bool:
        if self.backend_id is not None and backend_id != self.backend_id:
            return False
        return attempts is None or attempt in attempts

    # -- hooks ----------------------------------------------------------
    def before_task(self, task) -> None:
        """Evaluation hook: :meth:`before_evaluate` for the task's
        backend, request key and attempt."""
        key = evaluation_key(task.backend, task.params, task.plan)
        self.before_evaluate(task.backend, key, task.attempt)

    def after_task(self, task, result):
        """Evaluation hook: :meth:`after_evaluate` for the task."""
        key = evaluation_key(task.backend, task.params, task.plan)
        return self.after_evaluate(task.backend, key, task.attempt, result)

    def after_success(self, completed_count: int) -> None:
        """Supervisor-side hook: backend faults never abort a sweep."""

    def before_evaluate(self, backend_id: str, key: str, attempt: int) -> None:
        """Pre-evaluation hook: inject hangs and crashes.

        Runs in whichever process evaluates the task, so on the pool
        an injected hang is killable exactly like a real one.
        """
        if (self._applies(backend_id, attempt, self.hang_attempts)
                and self._afflicted("hang", self.hang_fraction, key)):
            time.sleep(self.hang_seconds)
        if (self._applies(backend_id, attempt, self.crash_attempts)
                and self._afflicted("crash", self.crash_fraction, key)):
            raise InjectedBackendFault(
                f"injected backend crash on {backend_id!r} "
                f"(attempt {attempt}, key {key[:12]})"
            )

    def after_evaluate(self, backend_id: str, key: str, attempt: int, result):
        """Post-evaluation hook: corrupt the result's metric means."""
        if not (self._applies(backend_id, attempt, self.corrupt_attempts)
                and self._afflicted("corrupt", self.corrupt_fraction, key)):
            return result
        corrupted = {
            name: replace(value, mean=value.mean * self.corrupt_factor)
            for name, value in result.metrics.items()
        }
        result.metrics = corrupted
        result.notes = list(result.notes) + [
            f"injected result corruption (x{self.corrupt_factor:g})"
        ]
        return result


# ----------------------------------------------------------------------
# Journal corruption
# ----------------------------------------------------------------------
def corrupt_journal_tail(
    path: str, garbage: str = '{"kind": "point", "series": "tru'
) -> None:
    """Append a torn (half-written) record to a journal, as if the
    process died mid-append."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(garbage)


def corrupt_journal_line(path: str, line_index: int, garbage: str = "\x00garbage\x00") -> None:
    """Overwrite one journal line with garbage (bit rot)."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not 0 <= line_index < len(lines):
        raise IndexError(
            f"journal {path!r} has {len(lines)} lines; cannot corrupt line "
            f"{line_index}"
        )
    lines[line_index] = garbage
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def truncate_journal(path: str, keep_lines: int) -> None:
    """Drop all but the first ``keep_lines`` lines of a journal."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    kept = lines[:keep_lines]
    with open(path, "w", encoding="utf-8") as handle:
        for line in kept:
            handle.write(line + "\n")
