"""Strict canonical JSON encoding for cache identities.

The result cache keys entries by a hash of the evaluation request.
The old implementation used ``json.dumps(..., default=str)``, which
silently stringifies anything JSON does not know: a numpy ``int64``
became ``"7"`` (colliding with the *string* ``"7"`` and missing
against the *int* ``7``), a NaN serialized as the non-standard token
``NaN``, and any stray object fell back to its ``repr``. Two distinct
requests could collide; two identical requests could miss.

This module replaces that with a closed-world encoder:

* ``None``, ``bool``, ``str``, ``int`` pass through.
* floats must be finite — NaN and ±inf raise :class:`ValueError`
  (an evaluation request containing them is a bug upstream, not a
  cache key); ``-0.0`` normalizes to ``0.0`` so the two equal floats
  hash identically.
* numpy scalars (when numpy is present) normalize via ``.item()`` to
  the plain Python value they equal.
* mappings require string keys and are emitted with sorted keys;
  tuples and lists both canonicalize to JSON arrays (they compare
  equal as request parameters, so they must hash equally).
* anything else raises :class:`TypeError` naming the offending type —
  loudly, instead of a silent ``str()`` collision.

Every rejection names where the value sits, as a JSONPath-ish
location such as ``$.plan.simulation.warmup`` or ``$.a[1].b``. The
location is built only for a rejected value, while its error
propagates out through the containers that hold it (each adds its key
or index); an accepted value costs no string formatting. Exact
builtin types are recognised before the ``isinstance`` checks that
numpy scalars, subclasses and other mappings and sequences take.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Iterable, List, Mapping, Sequence, Tuple

try:  # numpy is an optional normalization source, not a dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

__all__ = ["canonicalize", "canonical_json"]

#: The one encoder of canonical text (see :func:`canonical_json`).
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
)


class _Rejected(Exception):
    """A rejected value on its way out to :func:`canonicalize`.

    Each container the error leaves appends the value's key or index
    to ``path`` (innermost first); ``error`` builds the exception the
    caller sees from the finished location.
    """

    def __init__(self, error: Callable[[str], Exception]) -> None:
        super().__init__()
        self.error = error
        self.path: List[str] = []


def canonicalize(obj: Any, _path: str = "$") -> Any:
    """Normalize ``obj`` into plain JSON types, strictly.

    Raises ``ValueError`` for non-finite floats and ``TypeError`` for
    any type outside the closed world above; error messages include a
    JSONPath-ish location so a bad request field is easy to find.
    """
    try:
        return _canonical(obj)
    except _Rejected as rejected:
        location = _path + "".join(reversed(rejected.path))
        raise rejected.error(location) from None


def _canonical(obj: Any) -> Any:
    # Nearly every value of a request has an exact builtin type, which
    # needs none of the isinstance checks further down.
    kind = type(obj)
    if kind is float:
        return _finite(obj)
    if kind is str or kind is int or kind is bool or obj is None:
        return obj
    if kind is dict:
        return _mapping(obj.items())
    if kind is list or kind is tuple:
        return _sequence(obj)
    if isinstance(obj, str):  # before numpy: np.str_ stays a str
        return obj
    if _np is not None and isinstance(obj, _np.generic):
        # np.float64 subclasses float but np.int64 does NOT subclass
        # int; .item() maps both onto the plain value they equal.
        return _canonical(obj.item())
    if isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        return _finite(obj)
    if isinstance(obj, Mapping):
        return _mapping((key, obj[key]) for key in obj)
    if isinstance(obj, Sequence) and not isinstance(obj, (bytes, bytearray)):
        return _sequence(obj)
    raise _Rejected(lambda at: TypeError(
        f"cannot canonicalize {kind.__name__} at {at}: cache "
        "identities accept only None/bool/int/finite float/str, "
        "mappings with str keys, and sequences thereof"
    ))


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise _Rejected(lambda at: ValueError(
            f"non-finite float {value!r} at {at} cannot be part of a "
            "cache identity; reject it before building the request"
        ))
    return value + 0.0 if value == 0.0 else value  # -0.0 -> 0.0


def _mapping(items: Iterable[Tuple[Any, Any]]) -> dict:
    normalized = {}
    for key, value in items:
        if not isinstance(key, str):
            raise _Rejected(lambda at: TypeError(
                f"mapping key {key!r} at {at} is "
                f"{type(key).__name__}, not str"
            ))
        try:
            normalized[key] = _canonical(value)
        except _Rejected as rejected:
            rejected.path.append(f".{key}")
            raise
    return {key: normalized[key] for key in sorted(normalized)}


def _sequence(obj: Iterable[Any]) -> list:
    items = []
    for item in obj:
        try:
            items.append(_canonical(item))
        except _Rejected as rejected:
            rejected.path.append(f"[{len(items)}]")
            raise
    return items


def canonical_json(obj: Any) -> str:
    """The unique JSON text of ``obj``'s canonical form.

    Sorted keys, no whitespace, ``allow_nan=False`` as a second line
    of defence: equal requests produce byte-identical text. Encoded
    with one module-level :class:`json.JSONEncoder`, the bytes
    ``json.dumps`` with those options writes.
    """
    return _ENCODER.encode(canonicalize(obj))
