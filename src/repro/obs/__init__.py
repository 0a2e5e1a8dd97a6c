"""Structured observability: metrics, run manifests, trace export.

Every production system this repository aspires to be (see
ROADMAP.md) needs three things its simulations did not have until
this package existed:

* **Metrics** (:mod:`repro.obs.metrics`) — a process-local registry of
  counters, gauges and timing summaries that the SAN executive, the
  cluster engine, the evaluation backends and the sweep runner all
  record into. Exported as JSON, rendered by ``python -m repro obs``.

* **Run manifests** (:mod:`repro.obs.manifest`) — one versioned JSON
  document per figure run, written atomically next to the figure
  archive: parameters, backend identity and version, RNG seeds, cache
  hit/miss counts, retry and failure counts, kernel statistics, wall
  clock, and the package/git version that produced it. A figure whose
  manifest is missing or unreadable is not attributable; a manifest
  whose numbers disagree with the archive is a bug.

* **Trace export** (:mod:`repro.obs.trace`) — a single sink interface
  (JSON-lines file, in-memory, or null) that both the SAN executive's
  activity firings and the cluster simulator's protocol lifecycle
  feed, with sampling and windowing so tracing-off hot paths stay
  within the engine benchmark gate.

This package is a *leaf*: it imports nothing from the rest of
``repro`` except the version string, so every other layer can depend
on it without cycles. See ``docs/OBSERVABILITY.md`` for schemas and
naming conventions.
"""

from __future__ import annotations

from .manifest import (
    MANIFEST_SCHEMA_VERSION,
    ManifestError,
    RunManifest,
    load_manifest,
    manifest_path,
    render_manifest,
    render_metrics_snapshot,
    write_manifest,
)
from .metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    Timing,
    registry,
    set_registry,
)
from .trace import (
    JsonlTraceSink,
    MemorySink,
    NullSink,
    TraceSink,
    default_sink,
    set_default_sink,
)

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "ManifestError",
    "RunManifest",
    "load_manifest",
    "manifest_path",
    "render_manifest",
    "render_metrics_snapshot",
    "write_manifest",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Timing",
    "registry",
    "set_registry",
    "TraceSink",
    "NullSink",
    "MemorySink",
    "JsonlTraceSink",
    "default_sink",
    "set_default_sink",
]
