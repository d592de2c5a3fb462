"""Observability layer: tracing, unified metrics, profiling, structured logs.

One subsystem turns the scattered per-layer stats snapshots
(:mod:`repro.service.stats`, :mod:`repro.qos.stats`,
:mod:`repro.cluster.stats`) into artifacts standard tooling understands:

* :mod:`repro.obs.trace` — distributed request tracing.  A ``trace``
  wire field (id + parent span) rides the existing protocol, spans are
  captured into a bounded per-process ring
  (:data:`~repro.obs.trace.RECORDER`) and exported as JSONL via the
  ``trace`` wire op / ``repro trace dump``.
* :mod:`repro.obs.metrics` — typed ``Counter`` / ``Gauge`` /
  ``Histogram`` primitives with *mergeable* fixed-boundary histograms
  (bucket counts add, so a cross-shard merge is exactly the histogram
  of the concatenated samples), the latency summaries the ``stats``
  payloads carry, Prometheus text exposition, and a tiny asyncio
  scrape endpoint (``repro serve --metrics-port``).  Every service
  always records its request and phase latencies into its own
  histograms; they are the single latency record.
* :mod:`repro.obs.adapters` — render a registry from a ``stats``
  payload (counters, gauges and the latency histograms it carries).
* :mod:`repro.obs.profile` — opt-in ``ProfileScope`` phase accounting
  (kernel vs validation vs hashing vs serialization, per family).
* :mod:`repro.obs.logging` — structured JSON event log for the things
  that used to vanish silently (shard death, journal replay, autoscale
  decisions) plus the slow-request log.

Tracing, profiling and logging are **off by default and zero-cost when
disabled**: hot paths pay one attribute check, the wire format is
byte-identical when no ``trace`` field is present, and the bench floors
gate the overhead.
"""

from __future__ import annotations

from repro.obs.logging import (
    LOG,
    CapturedEvents,
    disable_logging,
    enable_logging,
    log_event,
    set_log_sink,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import PROFILER, ProfileScope, disable_profiling, enable_profiling
from repro.obs.trace import (
    RECORDER,
    SpanRecorder,
    disable_tracing,
    enable_tracing,
    new_span_id,
    new_trace_id,
    parse_wire_trace,
    tracing_enabled,
    wire_trace,
)

__all__ = [
    "RECORDER",
    "SpanRecorder",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "new_trace_id",
    "new_span_id",
    "parse_wire_trace",
    "wire_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PROFILER",
    "ProfileScope",
    "enable_profiling",
    "disable_profiling",
    "LOG",
    "CapturedEvents",
    "enable_logging",
    "disable_logging",
    "log_event",
    "set_log_sink",
]
