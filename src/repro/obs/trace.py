"""Distributed request tracing: span ring, trace ids, wire propagation.

A *trace* is one request's journey through the serving stack; a *span*
is one named phase of it (``recv``, ``admission``, ``queue_wait``,
``cache_consult``, ``route``, ``dispatch``, ``kernel``, ``encode``, plus
the client-side root ``request``).  Trace context rides the wire as an
optional ``trace`` field on request payloads::

    {"op": "solve", ..., "trace": {"id": "6f2c...", "span": "a1b2..."}}

The id is generated at the ingress (``ServiceClient`` or the cluster
router) when absent and propagated router → shard → worker unchanged;
each layer that records a span substitutes its own span id as the
downstream parent, so the dump reconstructs the nesting
client → router → shard → kernel.

Spans land in :data:`RECORDER`, a bounded per-process ring — recording
is lock-protected append into a ``deque``, export is JSONL.  The
recorder is **disabled by default**; every instrumented hot path guards
on the single ``RECORDER.enabled`` attribute, and the wire field is
simply absent when no ingress generates it, keeping the protocol
byte-identical to the untraced format.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

__all__ = [
    "SpanRecorder",
    "RECORDER",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "new_trace_id",
    "new_span_id",
    "parse_wire_trace",
    "wire_trace",
    "SPAN_NAMES",
]

#: The span taxonomy (documented in DESIGN.md "Observability layer").
SPAN_NAMES = (
    "request",       # client: whole round trip
    "recv",          # server: bytes read + decode of one request
    "admission",     # service: backpressure / QoS admission wait
    "queue_wait",    # service: admitted job waiting for a worker slot
    "cache_consult", # service: read-through cache lookup
    "route",         # router: shard selection + forward round trip
    "dispatch",      # service: unique-job lifetime (admission → result)
    "kernel",        # service: solver execution in the worker pool
    "encode",        # server: response encode
)


def new_trace_id() -> str:
    """A fresh 64-bit trace id (16 lowercase hex chars)."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A fresh 32-bit span id (8 lowercase hex chars)."""
    return os.urandom(4).hex()


def wire_trace(trace_id: str, span_id: str) -> Dict[str, str]:
    """The wire form of a trace context (the ``trace`` request field)."""
    return {"id": trace_id, "span": span_id}


def parse_wire_trace(value: object) -> Optional[Tuple[str, Optional[str]]]:
    """``(trace_id, parent_span_id)`` from a wire ``trace`` field, else None.

    Tolerant by design: tracing must never fail a request, so anything
    that is not a dict with a string ``id`` is treated as absent.
    """
    if not isinstance(value, dict):
        return None
    trace_id = value.get("id")
    if not isinstance(trace_id, str) or not trace_id:
        return None
    span = value.get("span")
    return (trace_id, span if isinstance(span, str) and span else None)


class SpanRecorder:
    """Bounded, thread-safe per-process span ring.

    ``enabled`` is the one attribute hot paths check; when False (the
    default) instrumented code skips span creation entirely.  The ring
    holds the most recent ``capacity`` spans — tracing a busy service
    never grows memory without bound.
    """

    DEFAULT_CAPACITY = 4096

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.enabled = False
        #: Identity of this ring: in-process cluster shards share their
        #: router's ring, so a cluster merge takes each ring once.
        self.ring = os.urandom(8).hex()
        self._capacity = capacity
        self._spans: "deque[Dict[str, object]]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._dropped = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def dropped(self) -> int:
        """Spans evicted by the ring bound since the last :meth:`clear`."""
        return self._dropped

    def resize(self, capacity: int) -> None:
        """Re-bound the ring (keeps the most recent spans that fit)."""
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        with self._lock:
            self._capacity = capacity
            self._spans = deque(self._spans, maxlen=capacity)

    def record(
        self,
        name: str,
        component: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        start: float,
        duration: float,
        **extra: object,
    ) -> str:
        """Append one finished span to the ring; returns ``span_id``.

        ``start`` is a monotonic timestamp (``time.perf_counter``) —
        comparable within one process, not across processes; ordering
        across processes comes from the parent/child links.
        """
        span: Dict[str, object] = {
            "trace": trace_id,
            "span": span_id,
            "parent": parent_id,
            "name": name,
            "component": component,
            "start": start,
            "dur": duration,
        }
        if extra:
            span.update(extra)
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self._dropped += 1
            self._spans.append(span)
        return span_id

    def span(
        self,
        name: str,
        component: str,
        trace_id: str,
        parent_id: Optional[str] = None,
        **extra: object,
    ) -> "_Span":
        """Context manager recording a span around a ``with`` block."""
        return _Span(self, name, component, trace_id, parent_id, extra)

    def snapshot(self, trace_id: Optional[str] = None) -> List[Dict[str, object]]:
        """Copies of the recorded spans, optionally filtered by trace id."""
        with self._lock:
            spans = [dict(span) for span in self._spans]
        if trace_id is not None:
            spans = [span for span in spans if span.get("trace") == trace_id]
        return spans

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def to_jsonl(self, trace_id: Optional[str] = None) -> str:
        """The ring as JSON Lines (one span object per line)."""
        return "\n".join(
            json.dumps(span, sort_keys=True) for span in self.snapshot(trace_id)
        )


class _Span:
    """Measures a ``with`` block and records it on exit (exceptions too)."""

    __slots__ = ("_recorder", "name", "component", "trace_id", "parent_id",
                 "span_id", "extra", "_start")

    def __init__(self, recorder: SpanRecorder, name: str, component: str,
                 trace_id: str, parent_id: Optional[str], extra: Dict[str, object]) -> None:
        self._recorder = recorder
        self.name = name
        self.component = component
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.span_id = new_span_id()
        self.extra = extra
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start
        if exc_type is not None:
            self.extra = {**self.extra, "error": exc_type.__name__}
        self._recorder.record(
            self.name, self.component, self.trace_id, self.span_id,
            self.parent_id, self._start, duration, **self.extra,
        )


#: The process-wide recorder every serving layer records into.
RECORDER = SpanRecorder()


def enable_tracing(capacity: Optional[int] = None) -> None:
    """Turn span recording on process-wide (optionally re-bounding the ring)."""
    if capacity is not None:
        RECORDER.resize(capacity)
    RECORDER.enabled = True


def disable_tracing(clear: bool = False) -> None:
    """Turn span recording off; ``clear=True`` also empties the ring."""
    RECORDER.enabled = False
    if clear:
        RECORDER.clear()


def tracing_enabled() -> bool:
    return RECORDER.enabled
