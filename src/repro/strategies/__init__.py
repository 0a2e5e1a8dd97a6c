"""Checkpointing strategies: protocol variants over one SAN model.

The strategy zoo (ROADMAP item 3). Each strategy parameterises the
existing model builder rather than forking it, and plugs into the
same plan/cache/figure/validation plumbing as the flat protocol:

* ``flat`` — the paper's coordinated checkpoint protocol, extracted
  as the reference every variant is validated against;
* ``incremental`` — delta checkpoints with a compression-ratio /
  full-checkpoint-period parameterisation (Kohl et al.,
  arXiv:1708.08286);
* ``adaptive`` — the interval recomputed from the observed (or
  frozen) failure rate and node count (Raghavendra & Vadhiyar,
  arXiv:1711.00270).

Plans carry a strategy as a *spec string*
(``"incremental:compression_ratio=0.5,full_checkpoint_period=4"``),
validated and canonicalised on plan construction; ``repro
strategies`` lists the registry; ``repro validate`` holds every
variant against ``flat`` at its reduction point. docs/STRATEGIES.md
spells the contract a new variant must meet before it merges.
"""

from .base import (
    DEFAULT_STRATEGY,
    CheckpointStrategy,
    StrategyCapabilities,
    StrategyError,
    StrategySpecError,
    UnknownStrategyError,
    format_spec,
    parse_spec,
)
from .registry import (
    all_strategies,
    canonical_spec,
    get_strategy,
    register,
    resolve,
    unregister,
)
from .adaptive import AdaptiveCheckpointStrategy
from .flat import FlatCheckpointStrategy
from .incremental import IncrementalCheckpointStrategy

__all__ = [
    "DEFAULT_STRATEGY",
    "CheckpointStrategy",
    "StrategyCapabilities",
    "StrategyError",
    "StrategySpecError",
    "UnknownStrategyError",
    "parse_spec",
    "format_spec",
    "register",
    "unregister",
    "get_strategy",
    "all_strategies",
    "resolve",
    "canonical_spec",
    "FlatCheckpointStrategy",
    "IncrementalCheckpointStrategy",
    "AdaptiveCheckpointStrategy",
]

register(FlatCheckpointStrategy)
register(IncrementalCheckpointStrategy)
register(AdaptiveCheckpointStrategy)
