"""repro — reproduction of "Modeling Coordinated Checkpointing for
Large-Scale Supercomputers" (Wang et al., DSN 2005).

Subpackages
-----------
``repro.san``
    Stochastic Activity Network formalism, discrete-event simulator,
    reward variables, replication statistics and an exact CTMC solver
    (the repository's Möbius replacement).
``repro.core``
    The paper's model: twelve composed submodels of a coordinated
    checkpointing supercomputer, with useful-work accounting.
``repro.analytical``
    Baselines and closed forms: Young, Daly, coordination order
    statistics, the correlated-failure birth–death chain.
``repro.cluster``
    A message-level discrete-event simulator of the actual 6-step
    checkpoint protocol over per-node state machines (ground truth for
    the aggregate SAN model).
``repro.failures``
    Failure arrival processes and synthetic trace tooling.
``repro.backends``
    The unified evaluation-backend layer: one ``Backend`` protocol
    over SAN simulation, exact CTMC solves, the cluster simulator and
    the analytical closed forms, plus a content-addressed result
    cache.
``repro.exec``
    Serializable evaluation tasks and the serial, pool and queue
    executors that run them.
``repro.service``
    ``repro worker``: a process draining a queue sweep's points beside
    it.
``repro.experiments``
    The evaluation harness regenerating every figure of the paper,
    with checkpointed sweeps, one retry loop (retries on derived
    seeds, then fallback backends) and chaos drills.
``repro.validate``
    Statistical validation: goodness-of-fit, metamorphic invariances,
    cross-backend differential cases and golden baselines.
``repro.obs``
    Observability: run manifests, process metrics, event tracing.
"""

from ._version import __version__
from .core import (
    CoordinationMode,
    ModelParameters,
    SimulationPlan,
    SimulationResult,
    simulate,
)

__all__ = [
    "__version__",
    "ModelParameters",
    "CoordinationMode",
    "SimulationPlan",
    "SimulationResult",
    "simulate",
]
