"""The one durable-write recipe every store in the package shares.

A leaf module: it imports nothing from the package, so any layer
(``repro.obs`` included) can use it without an import cycle.
"""

from __future__ import annotations

import os
import tempfile

__all__ = ["atomic_write"]


def atomic_write(path: str, text: str, prefix: str,
                 suffix: str = ".tmp") -> None:
    """Replace ``path`` with ``text`` so a crash leaves the old file or
    the new one, never a torn one.

    The text goes to a temp file named ``<prefix>*<suffix>`` in the
    same directory, is flushed and fsync'd, and is renamed over
    ``path``. The temp file is removed when any step fails. Callers
    pick the prefix and suffix their janitors glob for.
    """
    fd, tmp_path = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=prefix, suffix=suffix
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
