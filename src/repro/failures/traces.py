"""Synthetic failure traces and estimators.

The paper calibrates against field data (ASCI-Q per-node MTTF of one
year, Tang & Iyer's correlated-failure measurements). Lacking the raw
traces, this module generates synthetic equivalents with the published
rates and provides the estimators one would run on real traces —
useful both as test fixtures and to demonstrate how the model's
parameters would be fitted in practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

__all__ = ["FailureRecord", "generate_trace", "clustering_coefficient"]


@dataclass(frozen=True)
class FailureRecord:
    """One failure event in a trace."""

    time: float
    node_id: int
    correlated: bool = False


def generate_trace(
    n_nodes: int,
    mttf_node: float,
    horizon: float,
    seed: int = 0,
    p_e: float = 0.0,
    r: float = 0.0,
    window: float = 180.0,
) -> List[FailureRecord]:
    """A synthetic system-wide failure trace.

    Independent per-node failures at ``1/mttf_node`` each; with
    probability ``p_e`` a failure opens a burst window of duration
    ``window`` during which extra (correlated) failures arrive at
    ``r`` times the system rate.
    """
    if n_nodes < 1 or mttf_node <= 0 or horizon <= 0:
        raise ValueError("need n_nodes >= 1, mttf_node > 0, horizon > 0")
    rng = np.random.default_rng(seed)
    system_rate = n_nodes / mttf_node
    records: List[FailureRecord] = []
    t = 0.0
    burst_until = -1.0
    while True:
        in_burst = t < burst_until
        rate = system_rate * (1.0 + r) if in_burst else system_rate
        step = float(rng.exponential(1.0 / rate))
        if in_burst and t + step > burst_until:
            # The burst closes before the next elevated arrival;
            # continue from the window edge at the base rate.
            t = burst_until
            continue
        t += step
        if t >= horizon:
            return records
        correlated = t < burst_until
        records.append(
            FailureRecord(time=t, node_id=int(rng.integers(n_nodes)), correlated=correlated)
        )
        if not correlated and p_e > 0 and rng.random() < p_e:
            burst_until = t + window


def clustering_coefficient(trace: Sequence[FailureRecord], window: float) -> float:
    """Fraction of failures arriving within ``window`` of the previous
    one — a crude burstiness measure: ``1 - exp(-window/MTBF)`` for a
    Poisson trace, noticeably higher for correlated traces."""
    if len(trace) < 2:
        raise ValueError("need at least two failures")
    if window <= 0:
        raise ValueError(f"window must be > 0, got {window}")
    times = np.array([record.time for record in trace])
    gaps = np.diff(times)
    return float(np.mean(gaps < window))
