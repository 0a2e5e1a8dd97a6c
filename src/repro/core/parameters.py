"""Model parameters: every row of the paper's Table 3, plus derived
quantities.

All times are in **seconds**; helper constants (:data:`MINUTE`,
:data:`HOUR`, :data:`DAY`, :data:`YEAR`) make configuration read like
the paper ("checkpoint interval 30 minutes" is ``30 * MINUTE``).

The defaults are the paper's base-model study (Section 7.1): 64K
processors, 8 processors per node, per-node MTTF of 1 year, system
MTTR of 10 minutes, 30-minute checkpoint interval, fixed 10-second
quiesce time, no timeout, no correlated failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "MINUTE",
    "HOUR",
    "DAY",
    "YEAR",
    "MB",
    "GB",
    "CoordinationMode",
    "ModelParameters",
    "require_finite",
]

MINUTE = 60.0
HOUR = 60.0 * MINUTE
DAY = 24.0 * HOUR
#: One year of wall-clock time (365 days), the unit of the paper's MTTF.
YEAR = 365.0 * DAY

MB = 1e6
GB = 1e9


def require_finite(obj: Any, names: Tuple[str, ...]) -> None:
    """Raise ``ValueError`` naming the first field in ``names`` whose
    value on ``obj`` is NaN or infinite; ``None`` passes."""
    for name in names:
        value = getattr(obj, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


class CoordinationMode:
    """How the quiesce/coordination time is modeled (Sections 5, 7).

    * :data:`FIXED` — the base model's deterministic quiesce time
      (Section 7.1: "consider the coordination time to be a fixed
      quiesce time").
    * :data:`AGGREGATE_EXPONENTIAL` — Section 7.2's "no coordination"
      reference: the system quiesces as a whole with an exponential
      time of mean MTTQ (no cross-node variation).
    * :data:`MAX_OF_EXPONENTIALS` — the paper's coordination model:
      each of the ``n`` coordinating units has an iid exponential
      quiesce time; the coordination time is their maximum
      (``Y = -(1/lambda) log(1 - U**(1/n))``).
    """

    FIXED = "fixed"
    AGGREGATE_EXPONENTIAL = "aggregate_exponential"
    MAX_OF_EXPONENTIALS = "max_of_exponentials"

    ALL = (FIXED, AGGREGATE_EXPONENTIAL, MAX_OF_EXPONENTIALS)


@dataclass(frozen=True)
class ModelParameters:
    """Configuration of the checkpoint system model (paper Table 3).

    Attributes
    ----------
    n_processors:
        Number of compute processors (paper range 8K–256K and beyond).
    processors_per_node:
        Processors integrated per compute node (8 in the base model;
        16/32 in the Figure 4g/4h studies).
    checkpoint_interval:
        Time between checkpoint initiations (paper range 15 min – 4 h).
    mttf_node:
        Per-node mean time to failure (paper range 1 – 25 years). The
        per-processor MTTF is ``mttf_node * processors_per_node``.
    mttr:
        System-wide mean time to recovery of the compute nodes — the
        stage-2 recovery time for all compute nodes to read the
        checkpoint from the I/O nodes and reinitialise (exponential).
    mttr_io:
        Mean time to restart the I/O nodes after an I/O node failure.
    mttq:
        Per-unit mean time to quiesce (0.5 – 10 s).
    coordination_mode:
        One of :class:`CoordinationMode`.
    coordination_over:
        ``"processors"`` (Figures 5/6 plot coordination against the
        processor count) or ``"nodes"`` (Section 5's derivation);
        selects the population size of the max-order-statistic law.
    timeout:
        Master timeout for collecting 'ready' responses; ``None``
        disables the timeout (the master waits indefinitely).
    broadcast_overhead / software_overhead:
        Latency for the 'quiesce' broadcast to reach the nodes.
    app_io_cycle_period / compute_fraction:
        The BSP application's compute/IO cycle (3 minutes; fraction of
        computation 0.88 – 1.0).
    prob_correlated_failure:
        ``p_e`` — probability that a failure opens an
        error-propagation correlated-failure window.
    frate_correlated_factor:
        ``r`` — failure-rate multiplier inside a correlated window.
    correlated_failure_window:
        Duration of the error-propagation burst (3 minutes).
    generic_correlated_coefficient:
        ``alpha`` — unconditional probability the system is inside a
        generic correlated-failure window at any instant (0 disables
        generic correlated failures). The overall system failure rate
        becomes ``n * lambda * (1 + alpha * r)``.
    generic_correlated_mode:
        How generic correlated failures are realised. ``"uniform"``
        (default) scales every failure rate by ``1 + alpha * r`` —
        this reproduces the paper's Figure 8 ("the entire system
        failure rate gets doubled"). ``"modulated"`` implements the
        literal hyper-exponential alternation: windows of elevated
        rate occupying fraction ``alpha`` of time; it has the same
        average rate but clusters failures, which amortises rollbacks
        and produces a far smaller degradation (see the ablation
        bench).
    system_reboot_time:
        Whole-system reboot time after severe failures (1 hour).
    recovery_failure_threshold:
        Number of unsuccessful recoveries after which the whole system
        reboots; ``None`` retries indefinitely. The paper leaves the
        value unspecified; with the paper's own Figure 7 parameters a
        small threshold would force a reboot on nearly every
        correlated failure and contradict its reported insensitivity,
        so the default keeps retrying (see DESIGN.md).
    bandwidth_compute_to_io:
        Aggregate bandwidth from one I/O node's compute-node group to
        that I/O node (350 MB/s).
    bandwidth_io_to_fs:
        Bandwidth from one I/O node to the file system (1 Gb/s).
    compute_nodes_per_io_node:
        Compute nodes sharing one I/O node (64).
    checkpoint_size_per_node:
        Checkpoint state dumped per compute node (256 MB).
    app_io_data_per_node:
        Application data written per node per I/O phase (10 MB).
    background_checkpoint_write:
        The paper's two-step I/O: the I/O nodes write the checkpoint
        to the file system in the background while computation
        proceeds (True, the default). Setting False makes the
        file-system write synchronous — the compute nodes stay blocked
        through it — which restores the classical regime where an
        interior optimal checkpoint interval exists (ablation).
    recovery_distribution:
        Shape of the stage-2 recovery time, mean MTTR in every case:
        ``"exponential"`` (default — the Section 6 chain uses a rate
        µ), ``"erlang2"`` (less variable, a staged recovery), or
        ``"deterministic"``. The paper does not specify; the ablation
        bench shows the steady-state results are insensitive to the
        choice.
    checkpoint_write_factor:
        Scale factor on the checkpoint *write* volume (the dump to the
        I/O nodes and the background file-system write). The hook the
        checkpointing strategies (:mod:`repro.strategies`) use to
        model delta/compressed checkpoints: ``incremental`` sets it to
        the average dump volume per period. 1.0 (the default) is the
        paper's flat protocol, bit-for-bit — scaling by 1.0 is exact
        in IEEE arithmetic.
    recovery_read_factor:
        Scale factor on the stage-1 recovery *read* volume (the I/O
        nodes reading the checkpoint back from the file system).
        ``incremental`` sets it above 1 to model replaying the
        incremental chain back to the last full checkpoint. 1.0 (the
        default) is the flat protocol.
    """

    n_processors: int = 65536
    processors_per_node: int = 8
    checkpoint_interval: float = 30 * MINUTE
    mttf_node: float = 1 * YEAR
    mttr: float = 10 * MINUTE
    mttr_io: float = 1 * MINUTE
    mttq: float = 10.0
    coordination_mode: str = CoordinationMode.FIXED
    coordination_over: str = "processors"
    timeout: Optional[float] = None
    broadcast_overhead: float = 1e-3
    software_overhead: float = 1e-3
    app_io_cycle_period: float = 3 * MINUTE
    compute_fraction: float = 0.94
    prob_correlated_failure: float = 0.0
    frate_correlated_factor: float = 400.0
    correlated_failure_window: float = 3 * MINUTE
    generic_correlated_coefficient: float = 0.0
    generic_correlated_mode: str = "uniform"
    system_reboot_time: float = 1 * HOUR
    recovery_failure_threshold: Optional[int] = None
    bandwidth_compute_to_io: float = 350 * MB
    bandwidth_io_to_fs: float = 1 * GB / 8.0
    compute_nodes_per_io_node: int = 64
    checkpoint_size_per_node: float = 256 * MB
    app_io_data_per_node: float = 10 * MB
    background_checkpoint_write: bool = True
    recovery_distribution: str = "exponential"
    checkpoint_write_factor: float = 1.0
    recovery_read_factor: float = 1.0

    #: Every float field. NaN slips through each ``< 0`` / ``<= 0``
    #: check below and an infinity through most of them, so these are
    #: checked for finiteness first.
    _FLOAT_FIELDS = (
        "checkpoint_interval",
        "mttf_node",
        "mttr",
        "mttr_io",
        "mttq",
        "timeout",
        "broadcast_overhead",
        "software_overhead",
        "app_io_cycle_period",
        "compute_fraction",
        "prob_correlated_failure",
        "frate_correlated_factor",
        "correlated_failure_window",
        "generic_correlated_coefficient",
        "system_reboot_time",
        "bandwidth_compute_to_io",
        "bandwidth_io_to_fs",
        "checkpoint_size_per_node",
        "app_io_data_per_node",
        "checkpoint_write_factor",
        "recovery_read_factor",
    )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        require_finite(self, self._FLOAT_FIELDS)
        if self.n_processors < 1:
            raise ValueError(f"n_processors must be >= 1, got {self.n_processors}")
        if self.processors_per_node < 1:
            raise ValueError(
                f"processors_per_node must be >= 1, got {self.processors_per_node}"
            )
        if self.n_processors % self.processors_per_node:
            raise ValueError(
                f"n_processors ({self.n_processors}) must be a multiple of "
                f"processors_per_node ({self.processors_per_node})"
            )
        for name in (
            "checkpoint_interval",
            "mttf_node",
            "mttr",
            "mttr_io",
            "mttq",
            "app_io_cycle_period",
            "correlated_failure_window",
            "system_reboot_time",
            "bandwidth_compute_to_io",
            "bandwidth_io_to_fs",
            "checkpoint_size_per_node",
            "checkpoint_write_factor",
            "recovery_read_factor",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("broadcast_overhead", "software_overhead", "app_io_data_per_node"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.compute_fraction <= 1.0:
            raise ValueError(
                f"compute_fraction must be in [0, 1], got {self.compute_fraction}"
            )
        if not 0.0 <= self.prob_correlated_failure <= 1.0:
            raise ValueError(
                f"prob_correlated_failure must be in [0, 1], got "
                f"{self.prob_correlated_failure}"
            )
        if not 0.0 <= self.generic_correlated_coefficient < 1.0:
            raise ValueError(
                f"generic_correlated_coefficient must be in [0, 1), got "
                f"{self.generic_correlated_coefficient}"
            )
        if self.frate_correlated_factor < 0:
            raise ValueError(
                f"frate_correlated_factor must be >= 0, got "
                f"{self.frate_correlated_factor}"
            )
        if self.recovery_distribution not in (
            "exponential",
            "erlang2",
            "deterministic",
        ):
            raise ValueError(
                f"recovery_distribution must be 'exponential', 'erlang2' or "
                f"'deterministic', got {self.recovery_distribution!r}"
            )
        if self.generic_correlated_mode not in ("uniform", "modulated"):
            raise ValueError(
                f"generic_correlated_mode must be 'uniform' or 'modulated', "
                f"got {self.generic_correlated_mode!r}"
            )
        if self.coordination_mode not in CoordinationMode.ALL:
            raise ValueError(
                f"coordination_mode must be one of {CoordinationMode.ALL}, "
                f"got {self.coordination_mode!r}"
            )
        if self.coordination_over not in ("processors", "nodes"):
            raise ValueError(
                f"coordination_over must be 'processors' or 'nodes', got "
                f"{self.coordination_over!r}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0 or None, got {self.timeout}")
        if self.recovery_failure_threshold is not None and self.recovery_failure_threshold < 1:
            raise ValueError(
                f"recovery_failure_threshold must be >= 1 or None, got "
                f"{self.recovery_failure_threshold}"
            )
        if self.compute_nodes_per_io_node < 1:
            raise ValueError(
                f"compute_nodes_per_io_node must be >= 1, got "
                f"{self.compute_nodes_per_io_node}"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of compute nodes."""
        return self.n_processors // self.processors_per_node

    @property
    def n_io_nodes(self) -> int:
        """Number of I/O nodes (one per 64 compute nodes, rounded up)."""
        return max(1, math.ceil(self.n_nodes / self.compute_nodes_per_io_node))

    @property
    def nodes_per_io_group(self) -> int:
        """Compute nodes actually sharing one I/O node (small systems
        may not fill a group)."""
        return min(self.compute_nodes_per_io_node, self.n_nodes)

    @property
    def mttf_processor(self) -> float:
        """Per-processor MTTF implied by the per-node MTTF."""
        return self.mttf_node * self.processors_per_node

    @property
    def node_failure_rate(self) -> float:
        """Independent failure rate of one compute node (lambda)."""
        return 1.0 / self.mttf_node

    @property
    def compute_failure_rate(self) -> float:
        """System-wide independent compute-node failure rate
        (``n_nodes * lambda``)."""
        return self.n_nodes / self.mttf_node

    @property
    def io_failure_rate(self) -> float:
        """System-wide independent I/O-node failure rate (I/O nodes
        share the per-node MTTF)."""
        return self.n_io_nodes / self.mttf_node

    @property
    def system_mtbf(self) -> float:
        """Mean time between independent compute-node failures."""
        return 1.0 / self.compute_failure_rate

    @property
    def checkpoint_dump_time(self) -> float:
        """Time for the compute nodes to dump checkpoints to their I/O
        nodes. Groups proceed in parallel, so this is one group's data
        over the group's aggregate link: ``nodes_per_group * size /
        350 MB/s`` (46.8 s at the paper's defaults), scaled by the
        strategy's ``checkpoint_write_factor``."""
        return (
            self.nodes_per_io_group
            * self.checkpoint_size_per_node
            / self.bandwidth_compute_to_io
        ) * self.checkpoint_write_factor

    @property
    def checkpoint_fs_write_time(self) -> float:
        """Background write of one group's checkpoint from an I/O node
        to the file system (131 s at the paper's defaults), scaled by
        the strategy's ``checkpoint_write_factor``."""
        return (
            self.nodes_per_io_group
            * self.checkpoint_size_per_node
            / self.bandwidth_io_to_fs
        ) * self.checkpoint_write_factor

    @property
    def checkpoint_fs_read_time(self) -> float:
        """Stage-1 recovery: I/O nodes read the checkpoint back from
        the file system (reads cannot be done in the background).
        Scaled by the strategy's ``recovery_read_factor`` — *not* the
        write factor: an incremental strategy writes small deltas but
        recovery replays the whole chain back to the last full dump."""
        return (
            self.nodes_per_io_group
            * self.checkpoint_size_per_node
            / self.bandwidth_io_to_fs
        ) * self.recovery_read_factor

    @property
    def app_io_write_time(self) -> float:
        """Background write of one I/O phase's application data from an
        I/O node to the file system."""
        return (
            self.nodes_per_io_group * self.app_io_data_per_node / self.bandwidth_io_to_fs
        )

    @property
    def quiesce_broadcast_latency(self) -> float:
        """Latency for the 'quiesce' broadcast to reach the compute
        nodes (hardware broadcast plus software transmission)."""
        return self.broadcast_overhead + self.software_overhead

    @property
    def coordination_population(self) -> int:
        """Population size of the coordination order statistic."""
        if self.coordination_over == "processors":
            return self.n_processors
        return self.n_nodes

    @property
    def app_compute_phase(self) -> float:
        """Duration of the application's compute phase per cycle."""
        return self.app_io_cycle_period * self.compute_fraction

    @property
    def app_io_phase(self) -> float:
        """Duration of the application's I/O phase per cycle."""
        return self.app_io_cycle_period * (1.0 - self.compute_fraction)

    @property
    def correlated_rate_multiplier(self) -> float:
        """Failure-rate multiplier while inside a correlated-failure
        window: ``1 + r`` (Section 6's ``lambda_c = n lambda (1+r)``)."""
        return 1.0 + self.frate_correlated_factor

    @property
    def generic_uniform_multiplier(self) -> float:
        """Static failure-rate multiplier of uniform-mode generic
        correlated failures: ``1 + alpha * r`` (1 when disabled or in
        modulated mode)."""
        if (
            self.generic_correlated_coefficient > 0
            and self.generic_correlated_mode == "uniform"
        ):
            return 1.0 + self.generic_correlated_coefficient * self.frate_correlated_factor
        return 1.0

    @property
    def generic_quiet_phase_mean(self) -> float:
        """Mean duration of the independent-rate phase of the generic
        correlated-failure modulation, chosen so the long-run fraction
        of time inside a window equals ``alpha``."""
        alpha = self.generic_correlated_coefficient
        if alpha <= 0:
            raise ValueError("generic correlated failures are disabled (alpha == 0)")
        return self.correlated_failure_window * (1.0 - alpha) / alpha

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def with_overrides(self, **overrides: Any) -> "ModelParameters":
        """A copy with some fields replaced (dataclass ``replace``)."""
        return replace(self, **overrides)

    def describe(self) -> Dict[str, Any]:
        """A flat dictionary of configured and derived values, in the
        units the paper reports (minutes, years, MB)."""
        return {
            "n_processors": self.n_processors,
            "processors_per_node": self.processors_per_node,
            "n_nodes": self.n_nodes,
            "n_io_nodes": self.n_io_nodes,
            "checkpoint_interval_min": self.checkpoint_interval / MINUTE,
            "mttf_node_years": self.mttf_node / YEAR,
            "mttr_min": self.mttr / MINUTE,
            "mttr_io_min": self.mttr_io / MINUTE,
            "mttq_s": self.mttq,
            "coordination_mode": self.coordination_mode,
            "timeout_s": self.timeout,
            "system_mtbf_min": self.system_mtbf / MINUTE,
            "checkpoint_dump_time_s": self.checkpoint_dump_time,
            "checkpoint_fs_write_time_s": self.checkpoint_fs_write_time,
            "app_io_cycle_min": self.app_io_cycle_period / MINUTE,
            "compute_fraction": self.compute_fraction,
            "prob_correlated_failure": self.prob_correlated_failure,
            "frate_correlated_factor": self.frate_correlated_factor,
            "correlated_failure_window_min": self.correlated_failure_window / MINUTE,
            "generic_correlated_coefficient": self.generic_correlated_coefficient,
            "system_reboot_time_min": self.system_reboot_time / MINUTE,
        }
