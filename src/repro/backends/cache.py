"""Content-addressed cache of evaluation results.

A sweep point's value is fully determined by ``(backend, params,
plan)`` — the determinism contract the checkpoint journal (PR 1)
already relies on. This cache exploits that across *runs*: the key is
a digest of the canonical JSON of the request (including the result
schema version and the backend's own version, so numerics changes
invalidate stale entries), and the value is the serialised
:class:`~repro.backends.base.EvaluationResult`.

Layout: ``<root>/<backend_id>/<digest[:2]>/<digest>.json``, one file
per evaluated request, written atomically (temp file + fsync +
rename, the same discipline as the journal and the figure archive).
The two-hex-character fan-out keeps any one directory small under a
long-lived evaluation service; entries written under the older flat
layout (``<root>/<backend_id>/<digest>.json``) are migrated into
their shard transparently on first lookup. A corrupt, missing, or
schema-mismatched entry is a cache miss, never an error.

For a long-lived compute tier the cache also supports an explicit
eviction pass: :meth:`ResultCache.prune` removes the least-recently
used entries (by atime, falling back to mtime where the filesystem
does not track atime) until the cache fits a byte budget —
``repro cache prune --max-bytes`` from the CLI.

Opening a cache also sweeps orphaned ``.cache-*.json.tmp`` files: a
worker killed mid-``put`` (a real crash, a deadline kill, an injected
fault) leaves its temp file behind, and without a janitor those
orphans accumulate forever. Only stale temp files (older than
:data:`TMP_SWEEP_AGE_SECONDS`) are removed, so a concurrent writer's
in-flight temp file is never yanked out from under it.
"""

from __future__ import annotations

import glob
import hashlib
import os
import time
from typing import Dict, Optional, Set

from .._atomic import atomic_write
from ..core.parameters import ModelParameters
from ..obs import metrics
from .base import (
    Backend,
    EvaluationPlan,
    EvaluationResult,
    SCHEMA_VERSION,
    SchemaMismatchError,
    plan_key_dict,
)
from .canonical import canonical_json

__all__ = [
    "CACHE_KEY_VERSION",
    "TMP_SWEEP_AGE_SECONDS",
    "ResultCache",
    "request_digest",
]

#: Version of the key-derivation scheme itself. Bumped to 2 when the
#: lossy ``json.dumps(..., default=str)`` encoder was replaced by the
#: strict canonical encoder: every digest changes, so entries written
#: under the collision-prone scheme are invalidated rather than reused.
CACHE_KEY_VERSION = 2

#: Minimum age (seconds since last mtime) before an orphaned
#: ``.cache-*.json.tmp`` file is considered abandoned and swept.
TMP_SWEEP_AGE_SECONDS = 60.0

#: Cache roots already swept by this process — the janitor is an
#: init-time hygiene pass, not a recurring cost on every cache handle.
_SWEPT_ROOTS: Set[str] = set()


def request_digest(backend: Backend, params: ModelParameters,
                   plan: EvaluationPlan) -> str:
    """Digest of the canonical evaluation request.

    Everything that can change the value is hashed: the result schema
    version, the backend id and version, every model parameter, and
    the whole evaluation plan (metrics, simulation effort, seed,
    duration) except its wall-clock budget, which never changes a
    value. This is the one key-derivation recipe for the whole
    stack: :class:`ResultCache` files its entries under it and
    :class:`~repro.exec.EvaluationTask` deduplicates on it, so a queue
    coalescing two submissions is exactly the set of requests the
    cache would have served from one entry.
    """
    identity = {
        "schema": SCHEMA_VERSION,
        "key_version": CACHE_KEY_VERSION,
        "backend": backend.id,
        "backend_version": backend.backend_version,
    }
    identity.update(plan_key_dict(params, plan))
    canonical = canonical_json(identity)
    return hashlib.blake2b(
        canonical.encode("utf-8"), digest_size=16
    ).hexdigest()


class ResultCache:
    """Filesystem cache keyed by the canonical evaluation request."""

    def __init__(self, root: str) -> None:
        """Cache rooted at ``root`` (created lazily on first write).

        Sweeps stale ``.cache-*.json.tmp`` orphans under ``root`` the
        first time this process opens a cache there; the count of
        removed files is published as the ``cache.tmp_swept`` counter.
        """
        self.root = root
        # realpath, not abspath: the same root reached through a
        # symlink or a different relative spelling must be tracked as
        # ONE root, or it would be swept twice (or, once recorded
        # under an alias, never again under its real name).
        canonical = os.path.realpath(root)
        if canonical not in _SWEPT_ROOTS:
            _SWEPT_ROOTS.add(canonical)
            self._sweep_orphaned_tmp()

    def _sweep_orphaned_tmp(self) -> None:
        """Remove abandoned temp files left by killed writers."""
        swept = 0
        now = time.time()
        escaped = glob.escape(self.root)
        patterns = (
            # Sharded layout: <root>/<backend>/<digest[:2]>/.cache-*.tmp
            os.path.join(escaped, "*", "*", ".cache-*.json.tmp"),
            # Legacy flat layout, still swept during migration.
            os.path.join(escaped, "*", ".cache-*.json.tmp"),
        )
        for pattern in patterns:
            for tmp_path in glob.glob(pattern):
                try:
                    age = now - os.path.getmtime(tmp_path)
                    if age >= TMP_SWEEP_AGE_SECONDS:
                        os.unlink(tmp_path)
                        swept += 1
                except OSError:
                    continue  # raced with a writer or another janitor: fine
        if swept:
            metrics.registry().counter("cache.tmp_swept").inc(swept)

    def key(self, backend: Backend, params: ModelParameters,
            plan: EvaluationPlan) -> str:
        """Digest of the canonical request (see :func:`request_digest`)."""
        return request_digest(backend, params, plan)

    def entry_path(self, backend_id: str, digest: str) -> str:
        """The sharded location of one digest's entry file."""
        return os.path.join(
            self.root, backend_id, digest[:2], f"{digest}.json"
        )

    def _migrate_flat_entry(self, backend_id: str, digest: str,
                            sharded: str) -> bool:
        """Move a pre-shard flat entry into its fan-out directory.

        Returns True when an entry was migrated (the sharded path now
        exists). Losing the rename race to another process migrating
        the same entry is fine — the file lands in the same place.
        """
        flat = os.path.join(self.root, backend_id, f"{digest}.json")
        if not os.path.isfile(flat):
            return False
        try:
            os.makedirs(os.path.dirname(sharded), exist_ok=True)
            os.replace(flat, sharded)
        except OSError:
            return os.path.isfile(sharded)
        metrics.registry().counter("cache.migrated_entries").inc()
        return True

    def get(self, backend: Backend, params: ModelParameters,
            plan: EvaluationPlan) -> Optional[EvaluationResult]:
        """The cached result, or ``None`` on any kind of miss (see
        :meth:`get_entry`)."""
        return self.get_entry(backend.id, self.key(backend, params, plan))

    def get_entry(self, backend_id: str,
                  digest: str) -> Optional[EvaluationResult]:
        """The entry filed under ``digest`` for ``backend_id``, or
        ``None`` on any kind of miss.

        Corruption, schema mismatches and an entry stamped with another
        backend are deliberate misses: the caller re-evaluates and
        overwrites the bad entry. An entry written under the pre-shard
        flat layout is transparently moved into its shard and served.
        """
        path = self.entry_path(backend_id, digest)
        reg = metrics.registry()
        if not os.path.isfile(path):
            self._migrate_flat_entry(backend_id, digest, path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            reg.counter("cache.misses").inc()
            return None
        try:
            result = EvaluationResult.from_json(text)
        except (SchemaMismatchError, ValueError, KeyError, TypeError):
            reg.counter("cache.misses").inc()
            reg.counter("cache.corrupt_entries").inc()
            return None
        if result.backend != backend_id:
            reg.counter("cache.misses").inc()
            return None
        reg.counter("cache.hits").inc()
        return result

    def put(self, backend: Backend, params: ModelParameters,
            plan: EvaluationPlan, result: EvaluationResult) -> str:
        """Durably store a result; returns the entry path (see
        :meth:`put_entry`)."""
        return self.put_entry(
            backend.id, self.key(backend, params, plan), result
        )

    def put_entry(self, backend_id: str, digest: str,
                  result: EvaluationResult) -> str:
        """Durably file ``result`` under ``digest`` for ``backend_id``;
        returns the entry path.

        Atomic (temp file, fsync, rename): a crash mid-write leaves
        either the old entry or the new one, never a torn file that
        would later read as a miss-with-warning.
        """
        path = self.entry_path(backend_id, digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write(path, result.to_json(), prefix=".cache-",
                     suffix=".json.tmp")
        metrics.registry().counter("cache.puts").inc()
        return path

    def _entries(self):
        """Every completed entry file under the root (both layouts),
        as ``(path, last_use_unix, size_bytes)`` tuples."""
        found = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if not name.endswith(".json") or name.startswith("."):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue  # raced with a concurrent prune/writer
                last_use = max(stat.st_atime, stat.st_mtime)
                found.append((path, last_use, stat.st_size))
        return found

    def prune(self, max_bytes: int) -> Dict[str, int]:
        """Evict least-recently-used entries down to a byte budget.

        Entries are ranked by ``max(atime, mtime)`` — atime is the
        read clock where the filesystem tracks it (relatime mounts
        update it on cache hits), mtime the floor on mounts that do
        not — and removed oldest-first until the cache fits
        ``max_bytes``. Emptied shard directories are removed. Returns
        a summary dict (entries/bytes before, removed, after);
        removals are also published as the ``cache.pruned_entries`` /
        ``cache.pruned_bytes`` counters.

        Concurrency: eviction is safe against live readers and
        writers — a reader losing its entry sees an ordinary miss and
        re-evaluates; an in-flight atomic write is untouched (temp
        files are not entries).
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = self._entries()
        total = sum(size for _, _, size in entries)
        summary = {
            "entries_before": len(entries),
            "bytes_before": total,
            "entries_removed": 0,
            "bytes_removed": 0,
            "bytes_after": total,
        }
        if total <= max_bytes:
            return summary
        for path, _last_use, size in sorted(entries, key=lambda e: e[1]):
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue  # raced with a reader's migration or another prune
            total -= size
            summary["entries_removed"] += 1
            summary["bytes_removed"] += size
            shard = os.path.dirname(path)
            try:
                if os.path.realpath(shard) != os.path.realpath(self.root):
                    os.rmdir(shard)  # only succeeds when emptied
            except OSError:
                pass
        summary["bytes_after"] = total
        reg = metrics.registry()
        if summary["entries_removed"]:
            reg.counter("cache.pruned_entries").inc(summary["entries_removed"])
            reg.counter("cache.pruned_bytes").inc(summary["bytes_removed"])
        return summary
