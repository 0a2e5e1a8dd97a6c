"""The checkpointing-strategy protocol: what a strategy is and how it
is spelled.

A *strategy* decides how checkpoints are taken — not how the model is
simulated. Each strategy **parameterises** the one SAN model builder
(via :meth:`CheckpointStrategy.configure`, which returns a derived
:class:`~repro.core.parameters.ModelParameters`) instead of forking
it, so every protocol variant runs through the same submodels, the
same seed policy, and the same validation machinery as the paper's
flat protocol.

Strategies are spelled as *spec strings* everywhere a plan or CLI
names one::

    flat
    incremental:compression_ratio=0.5,full_checkpoint_period=4
    adaptive:failure_rate=1e-4

i.e. ``name`` or ``name:key=value,...``. Spec strings are parsed by
:func:`parse_spec` and canonicalised (parameters sorted, numbers in
round-trip ``repr`` form) by the registry's ``canonical_spec``, so
two spellings of the same parameterisation always produce the same
cache digest.

The protocol mirrors :mod:`repro.backends`: a class with an ``id``, a
``strategy_version``, declared :class:`StrategyCapabilities`, and one
behavioural method. Errors subclass :class:`StrategyError`, itself a
:class:`ValueError`, so an invalid strategy surfaces exactly like any
other invalid plan field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple, Union

from ..core.parameters import ModelParameters

__all__ = [
    "DEFAULT_STRATEGY",
    "StrategyError",
    "UnknownStrategyError",
    "StrategySpecError",
    "StrategyCapabilities",
    "CheckpointStrategy",
    "parse_spec",
    "format_spec",
]

#: The strategy every plan uses unless told otherwise: the paper's
#: flat coordinated checkpoint protocol.
DEFAULT_STRATEGY = "flat"

#: The value types a strategy parameter may take.
Number = Union[int, float]


class StrategyError(ValueError):
    """Base class for strategy problems. A :class:`ValueError` so that
    plan validation and CLI error mapping treat a bad strategy exactly
    like any other bad plan field (exit code 2)."""


class UnknownStrategyError(StrategyError, KeyError):
    """No strategy is registered under the requested name."""

    def __str__(self) -> str:  # KeyError quotes its repr; undo that.
        return ValueError.__str__(self)


class StrategySpecError(StrategyError):
    """A strategy spec string or parameter set is malformed."""


@dataclass(frozen=True)
class StrategyCapabilities:
    """What one strategy declares about itself.

    Attributes
    ----------
    description:
        One human-readable sentence for ``repro strategies``.
    parameters:
        Names of the spec parameters the strategy accepts.
    reduction:
        How (or whether) the strategy reduces to the flat reference —
        the oracle every variant's differential case is built on.
    """

    description: str
    parameters: Tuple[str, ...] = ()
    reduction: str = ""


class CheckpointStrategy:
    """Base class of every checkpointing strategy.

    Subclasses set ``id``, ``strategy_version`` and ``capabilities``
    as class attributes, accept their spec parameters as keyword
    arguments (validating them with :class:`StrategySpecError`), and
    implement :meth:`params_dict` and :meth:`configure`.

    ``configure`` must be **idempotent** — it sets absolute values on
    the returned parameters rather than compounding multiplicative
    edits — so applying a strategy to parameters it has already
    configured is harmless.
    """

    id: str = ""
    strategy_version: int = 1
    capabilities: StrategyCapabilities = StrategyCapabilities(description="")

    def params_dict(self) -> Dict[str, Number]:
        """The configured spec parameters (the canonical value set)."""
        raise NotImplementedError

    def configure(self, params: ModelParameters) -> ModelParameters:
        """The model configuration this strategy actually runs."""
        raise NotImplementedError

    def spec(self) -> str:
        """The canonical spec string of this parameterisation."""
        return format_spec(self.id, self.params_dict())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.spec()!r}>"


def _parse_number(text: str, key: str, spec: str) -> Number:
    """A spec parameter value: an int when it reads as one, else a
    finite float."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        raise StrategySpecError(
            f"parameter {key!r} in strategy spec {spec!r} is not a "
            f"number: {text!r}"
        ) from None
    if not math.isfinite(value):
        raise StrategySpecError(
            f"parameter {key!r} in strategy spec {spec!r} must be "
            f"finite, got {text!r}"
        )
    return value


def parse_spec(spec: str) -> Tuple[str, Dict[str, Number]]:
    """Split ``"name"`` / ``"name:key=value,..."`` into its parts.

    Raises :class:`StrategySpecError` on anything malformed — empty
    names, missing ``=``, duplicate keys, non-numeric values — naming
    the offending fragment.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise StrategySpecError(
            f"a strategy spec must be a non-empty string, got {spec!r}"
        )
    name, sep, rest = spec.partition(":")
    name = name.strip()
    if not name:
        raise StrategySpecError(f"strategy spec {spec!r} has an empty name")
    params: Dict[str, Number] = {}
    if sep and not rest.strip():
        raise StrategySpecError(
            f"strategy spec {spec!r} has an empty parameter list; "
            f"drop the ':' or add key=value pairs"
        )
    if rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if not eq or not key or not value:
                raise StrategySpecError(
                    f"malformed parameter {item.strip()!r} in strategy "
                    f"spec {spec!r}; expected key=value"
                )
            if key in params:
                raise StrategySpecError(
                    f"duplicate parameter {key!r} in strategy spec {spec!r}"
                )
            params[key] = _parse_number(value, key, spec)
    return name, params


def format_spec(name: str, params: Dict[str, Number]) -> str:
    """The canonical spelling of a parameterisation: parameters sorted
    by name, values in round-trip ``repr`` form (so parsing the result
    reproduces the exact same values)."""
    if not params:
        return name
    rendered = ",".join(
        f"{key}={params[key]!r}" for key in sorted(params)
    )
    return f"{name}:{rendered}"
