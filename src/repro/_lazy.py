"""Package exports that load their submodule on first use (PEP 562).

A package ``__init__`` that imports a submodule only to re-export its
names makes every importer of the package pay for that submodule and
everything it imports. A package lists such names here instead::

    __getattr__, __dir__ = lazy_exports(globals(), {
        ".dot": ("to_dot",),
    })

The first ``repro.san.to_dot`` (or ``from repro.san import to_dot``)
imports ``repro.san.dot`` and stores the value in the package
namespace, so a second access is a plain attribute lookup. ``dir()``
of the package lists its ``__all__``.

A leaf module: it imports nothing from the package.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: Dict[str, Any], submodules: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of the package whose
    ``globals()`` is ``namespace``.

    ``submodules`` maps a submodule, relative to the package (``".dot"``),
    to the names the package exports from it.
    """
    package = namespace["__name__"]
    where = {name: module for module, names in submodules.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return list(namespace["__all__"])

    return __getattr__, __dir__
