"""The backend registry: name -> :class:`~repro.backends.base.Backend`.

Everything downstream resolves backends by id::

    from repro.backends import get_backend, backend_ids
    backend = get_backend("ctmc")

The five stock backends are listed by id in a table and each is
imported and built on its first lookup, so a process that never asks
for ``cluster``, ``analytical`` or ``ctmc`` never loads the cluster
simulator, the closed forms or the CTMC solvers. :func:`backend_ids`
lists them unbuilt; :func:`all_backends` builds them all.

The registry is intentionally tiny — a dict plus clear errors — so
alternative backends (a sharded runner, a remote service) can slot in
by calling :func:`register` without touching the consumers.
"""

from __future__ import annotations

import importlib
import threading
from typing import Any, Dict, List, Tuple

from .base import Backend, UnknownBackendError

__all__ = [
    "register",
    "unregister",
    "get_backend",
    "backend_ids",
    "all_backends",
]

_REGISTRY: Dict[str, Backend] = {}

#: Stock backends not built yet: id -> (module, class, constructor
#: keywords). An entry moves to ``_REGISTRY`` on its first lookup.
_STOCK: Dict[str, Tuple[str, str, Dict[str, Any]]] = {
    "san-sim": (".san_sim", "SanSimulationBackend", {}),
    "san-sim-full": (
        ".san_sim", "SanSimulationBackend",
        {"id": "san-sim-full", "kernel": "full"},
    ),
    "ctmc": (".ctmc", "CTMCBackend", {}),
    "cluster": (".cluster", "ClusterBackend", {}),
    "analytical": (".analytical", "AnalyticalBackend", {}),
}

#: Held while a stock backend is built, so that two threads looking it
#: up first build it once.
_BUILDING = threading.Lock()


def register(backend: Backend) -> Backend:
    """Register a backend under its ``id``; returns it for chaining.

    Re-registering an id, a stock one included, is an error (it would
    silently redirect cached results and sweeps) — :func:`unregister`
    first.
    """
    if backend.id in _REGISTRY or backend.id in _STOCK:
        raise ValueError(f"backend id {backend.id!r} is already registered")
    _REGISTRY[backend.id] = backend
    return backend


def unregister(name: str) -> None:
    """Remove a registered backend, built or not (primarily for tests)."""
    _REGISTRY.pop(name, None)
    _STOCK.pop(name, None)


def get_backend(name: str) -> Backend:
    """The backend registered under ``name``, built if it is a stock
    backend looked up for the first time.

    Raises :class:`~repro.backends.base.UnknownBackendError` naming
    the known ids, so a typo'd ``--backend`` is self-explanatory.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        pass
    with _BUILDING:
        if name in _STOCK:
            module, cls, kwargs = _STOCK[name]
            _REGISTRY[name] = getattr(
                importlib.import_module(module, __package__), cls
            )(**kwargs)
            del _STOCK[name]
        backend = _REGISTRY.get(name)
    if backend is None:
        raise UnknownBackendError(
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(backend_ids()) or '(none)'}"
        )
    return backend


def backend_ids() -> List[str]:
    """Sorted ids of every registered backend, built or not."""
    return sorted([*_REGISTRY, *_STOCK])


def all_backends() -> List[Backend]:
    """Every registered backend, sorted by id (building the stock ones)."""
    return [get_backend(name) for name in backend_ids()]
