"""Structured JSON event logging for the events that used to vanish.

``log_event("shard_dead", shard="shard-1", reason="probe")`` emits one
JSON object per line to the configured sink (stderr by default) — shard
death and reap, session journal replay and divergence, autoscale
decisions, and the slow-request log all go through here.

Off by default: every call site pays one attribute check
(``LOG.enabled``).  The slow-request log is its own opt-in
(``ServiceConfig(slow_request_threshold=...)``) and bypasses the global
flag with ``_force=True`` — configuring a threshold *is* the enable.

The sink is injectable (:func:`set_log_sink`) so tests capture events
without touching stderr; the default sink never raises (a broken pipe
must not take the service down with it).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

__all__ = [
    "LOG",
    "EventLog",
    "enable_logging",
    "disable_logging",
    "log_event",
    "set_log_sink",
]

Sink = Callable[[Dict[str, object]], None]


def _stderr_sink(record: Dict[str, object]) -> None:
    try:
        sys.stderr.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        sys.stderr.flush()
    except (OSError, ValueError):  # closed stream mid-shutdown: drop, don't raise
        pass


class EventLog:
    """The process-wide structured log: an enabled flag plus a sink."""

    def __init__(self) -> None:
        self.enabled = False
        self._sink: Sink = _stderr_sink
        self._lock = threading.Lock()

    def emit(self, event: str, fields: Dict[str, object]) -> None:
        record: Dict[str, object] = {"event": event, "ts": time.time()}
        record.update(fields)
        with self._lock:
            sink = self._sink
        sink(record)

    def set_sink(self, sink: Optional[Sink]) -> None:
        with self._lock:
            self._sink = sink if sink is not None else _stderr_sink


#: The process-wide event log (off by default).
LOG = EventLog()


def log_event(event: str, _force: bool = False, **fields: object) -> None:
    """Emit one structured event line when logging is on.

    ``_force=True`` bypasses the global flag — used by features that are
    their own opt-in (the slow-request log).
    """
    if not (LOG.enabled or _force):
        return
    LOG.emit(event, fields)


def enable_logging(sink: Optional[Sink] = None) -> None:
    """Turn structured logging on (optionally installing a sink)."""
    if sink is not None:
        LOG.set_sink(sink)
    LOG.enabled = True


def disable_logging() -> None:
    LOG.enabled = False


def set_log_sink(sink: Optional[Sink]) -> None:
    """Install ``sink`` (``None`` restores the stderr default)."""
    LOG.set_sink(sink)


class CapturedEvents:
    """A list-backed sink for tests: ``with CapturedEvents() as events: ...``."""

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []
        self._previous_enabled = False

    def __enter__(self) -> "CapturedEvents":
        self._previous_enabled = LOG.enabled
        LOG.set_sink(self.records.append)
        LOG.enabled = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        LOG.enabled = self._previous_enabled
        LOG.set_sink(None)

    def of(self, event: str) -> List[Dict[str, object]]:
        return [r for r in self.records if r.get("event") == event]


__all__.append("CapturedEvents")
