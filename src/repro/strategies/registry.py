"""The strategy registry: name -> :class:`CheckpointStrategy` class.

Mirrors :mod:`repro.backends.registry`, with one difference: because
strategies carry per-use parameters, the registry stores *classes*
and instantiates one per resolved spec, rather than storing ready
singletons. Everything downstream resolves spec strings through
:func:`resolve`::

    from repro.strategies import resolve
    strategy = resolve("incremental:compression_ratio=0.5")
    params = strategy.configure(params)
"""

from __future__ import annotations

from typing import Dict, List, Type

from .base import (
    CheckpointStrategy,
    StrategySpecError,
    UnknownStrategyError,
    parse_spec,
)

__all__ = [
    "register",
    "unregister",
    "get_strategy",
    "all_strategies",
    "resolve",
    "canonical_spec",
]

_REGISTRY: Dict[str, Type[CheckpointStrategy]] = {}


def register(cls: Type[CheckpointStrategy]) -> Type[CheckpointStrategy]:
    """Register a strategy class under its ``id``; returns it so the
    call works as a decorator.

    Re-registering an id is an error (it would silently redirect every
    plan naming it) — :func:`unregister` first.
    """
    if not cls.id:
        raise ValueError(f"strategy class {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"strategy id {cls.id!r} is already registered")
    _REGISTRY[cls.id] = cls
    return cls


def unregister(name: str) -> None:
    """Remove a registered strategy (primarily for tests)."""
    _REGISTRY.pop(name, None)


def get_strategy(name: str, **params) -> CheckpointStrategy:
    """Instantiate the strategy registered under ``name``.

    Raises :class:`~repro.strategies.base.UnknownStrategyError` naming
    the known ids (so a typo'd ``--strategy`` is self-explanatory) or
    :class:`~repro.strategies.base.StrategySpecError` when ``params``
    are not ones the strategy accepts.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise UnknownStrategyError(
            f"unknown strategy {name!r}; registered strategies: "
            f"{', '.join(sorted(_REGISTRY)) or '(none)'}"
        ) from None
    try:
        return cls(**params)
    except TypeError:
        accepted = ", ".join(cls.capabilities.parameters) or "(none)"
        raise StrategySpecError(
            f"strategy {name!r} does not accept parameters "
            f"{sorted(params)}; accepted parameters: {accepted}"
        ) from None


def all_strategies() -> List[CheckpointStrategy]:
    """One default-parameterised instance per registered strategy,
    sorted by id (the ``repro strategies`` listing)."""
    return [get_strategy(name) for name in sorted(_REGISTRY)]


def resolve(spec: str) -> CheckpointStrategy:
    """Parse a spec string and instantiate the named strategy."""
    name, params = parse_spec(spec)
    return get_strategy(name, **params)


def canonical_spec(spec: str) -> str:
    """The canonical spelling of ``spec`` (validated, parameters
    sorted and value-normalised). Canonicalising is a projection:
    ``canonical_spec(canonical_spec(s)) == canonical_spec(s)``."""
    return resolve(spec).spec()
