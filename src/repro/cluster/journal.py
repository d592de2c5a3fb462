"""Router-side session journal: crash-safe failover for pinned sessions.

A graceful handoff migrates a session by exporting it from the source
shard, which needs the source alive.  When a pinned shard dies without
one, the journal still holds the session: the router mirrors every
session op it forwards, in arrival order, into a shadow
:class:`~repro.service.sessions.SessionManager` -- the class every shard
runs -- by making the calls the shard's server made for that op.  Online
schedulers are deterministic, so the shadow session is bit-identical to
the one that died; on failover the router exports it and restores it
onto a survivor through ``session_restore``, whose verified replay
(:func:`repro.online.base.replay_state`) re-checks every placement.

What is mirrored, and when:

* an **acknowledged** op once the backend answered it: the shadow runs
  the op and must reach the backend's outcome -- an ``ok`` submit with
  the same ``placements`` (window flush + batch), an error response with
  an error of its own.  Any other outcome marks the session *diverged*
  and disables its replay (a corrupt journal must never restore);
* an **unacknowledged** submit at send time (it gets no response, so
  the shadow is its only record): a batch that fails to parse poisons
  the window, any other is placed into it.

Memory is bounded like the backend's: the shadow runs the shards'
per-session task bound, and the router forgets a session with its pin.
Every mirror call swallows its own failure into the diverged mark, so a
journal fault can turn a crash into an accounted session loss but can
never break the request path it shadows.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Mapping, Optional

from repro.obs.logging import log_event
from repro.service.protocol import ProtocolError
from repro.service.server import _submit_tasks
from repro.service.sessions import SessionError, SessionManager

__all__ = ["SessionJournal"]


class SessionJournal:
    """Shadow sessions for every pinned session of one router."""

    def __init__(self, max_session_tasks: int) -> None:
        # No TTL and no session bound: the router's pin sweep bounds its pins.
        self._manager = SessionManager(
            max_sessions=sys.maxsize, max_session_tasks=max_session_tasks, ttl=None
        )
        #: Router session id -> shadow session id (``None`` once diverged).
        self._shadows: Dict[str, Optional[str]] = {}

    def __len__(self) -> int:
        return len(self._shadows)

    def forget(self, session_id: str) -> None:
        """Drop one session's shadow (close, loss, or pin sweep)."""
        shadow = self._shadows.pop(session_id, None)
        if shadow is not None:
            self._manager.close(shadow)

    def _mirror(self, session_id: str, call: Callable[[str], object], ok: bool = True):
        """``call(shadow)``; the session diverges unless it fails exactly when not ``ok``."""
        shadow = self._shadows.get(session_id)
        if shadow is None:
            return None
        try:
            result = call(shadow)
        except Exception as exc:
            if ok:
                self._diverge(session_id, f"the shadow failed where the backend did not: {exc}")
            return None
        if not ok:
            self._diverge(session_id, "the backend failed where the shadow did not")
        return result

    def _diverge(self, session_id: str, reason: str) -> None:
        """Stop shadowing a session the journal can no longer replay."""
        log_event("session_diverged", session=session_id, reason=reason)
        self.forget(session_id)
        self._shadows[session_id] = None

    def opened(self, session_id: str, request: Mapping[str, object]) -> None:
        """Shadow a ``session_open``/``session_restore`` the backend accepted."""
        try:
            if request.get("op") == "session_restore":
                session = self._manager.restore(request["export"])  # type: ignore[arg-type]
            else:
                session = self._manager.open(
                    request["spec"], request["m"], **(request.get("params") or {})  # type: ignore[arg-type]
                )
        except Exception as exc:
            self._diverge(session_id, f"the shadow cannot open it: {exc}")
            return
        self._shadows[session_id] = session.id

    def acked(
        self, session_id: str, request: Mapping[str, object], response: Mapping[str, object]
    ) -> None:
        """Mirror an acknowledged op with the backend's ``response`` to it."""
        manager = self._manager
        op = request.get("op")
        if op == "session_submit":
            def call(shadow: str) -> None:
                tasks = _submit_tasks(request)  # type: ignore[arg-type]
                manager.check_window(shadow)
                acks = manager.submit_many(shadow, tasks)
                placements = manager.take_window(shadow)
                placements.extend([ack["task_id"], ack["processor"]] for ack in acks)
                if placements != response.get("placements"):
                    raise SessionError("backend placements diverged from the shadow")
        elif op == "session_result":
            def call(shadow: str) -> None:
                manager.check_window(shadow)
                manager.seal(shadow)
        else:
            return
        self._mirror(session_id, call, ok=bool(response.get("ok")))

    def unacked(self, session_id: str, request: Mapping[str, object]) -> None:
        """Mirror an unacknowledged submit (journaled before it is sent)."""
        def call(shadow: str) -> None:
            try:
                tasks = _submit_tasks(request)  # type: ignore[arg-type]
            except ProtocolError as exc:
                self._manager.poison_window(shadow, str(exc))
            else:
                self._manager.submit_unacked(shadow, tasks)

        self._mirror(session_id, call)

    def export(self, session_id: str) -> Optional[Dict[str, object]]:
        """The ``session_restore`` payload of one session, or ``None``.

        ``None`` when the session was never journaled or diverged.
        """
        return self._mirror(session_id, self._manager.export)
