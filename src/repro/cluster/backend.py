"""Backend shard handles: how the router talks to one ``SolverService``.

A *shard* is one full :class:`~repro.service.SolverService` — its own
worker pool, admission bounds, sessions, and read-through view of the
shared cache.  The router owns a set of :class:`ShardHandle` objects and
speaks to every one of them in decoded-message form (request dict in,
response dict out — the same shapes the wire protocol frames), so the
two implementations are interchangeable:

* :class:`ProcessShard` — the production shape: spawns one
  ``repro serve --port 0`` subprocess, parses the listening banner, and
  multiplexes requests over a :class:`~repro.service.client.ServiceClient`
  TCP connection.  Real process isolation, real wire costs.
* :class:`InprocShard` — embeds the service in the router's own event
  loop and calls its :meth:`~repro.service.SolverService.handle` directly.
  No subprocess, no sockets: cheap, deterministic, ideal for tests and
  quickstarts, with identical protocol semantics.
* :class:`RemoteShard` — the multi-host shape: *attaches* to an
  already-running ``repro serve`` at ``host:port`` instead of spawning
  one.  The router does not own the remote process, so ``stop()`` and
  ``kill()`` only sever the connection — never send ``shutdown`` — and
  liveness is established by periodic ``ping`` probes rather than a
  child-process returncode.

Transport-level failures (the shard process died, the connection
dropped) surface as :class:`ConnectionError` from :meth:`ShardHandle.request`
— the router's cue to mark the shard dead and retry elsewhere.  An
``ok: false`` *response* is not a transport failure: it is a legitimate
answer the router relays to its client untouched.
"""

from __future__ import annotations

import abc
import asyncio
import os
import re
import sys
from typing import Dict, List, Mapping, Optional

from repro.obs.logging import log_event

__all__ = [
    "ShardHandle",
    "InprocShard",
    "ProcessShard",
    "RemoteShard",
    "ShardStartError",
]

#: Seconds a spawning ``repro serve`` subprocess gets to print its
#: listening banner before the spawn is declared failed.
_SPAWN_TIMEOUT = 60.0

_BANNER_RE = re.compile(r"listening on [\w.\-]+:(\d+)")


class ShardStartError(RuntimeError):
    """A backend shard failed to start (spawn, banner, or connect)."""


class ShardHandle(abc.ABC):
    """One backend shard, addressed by a stable ``name``.

    The ``name`` is the shard's identity in the rendezvous routing ring —
    it must be unique for the router's lifetime and is never reused for a
    replacement shard (a new shard gets a new name, so routing state
    never aliases a dead backend).
    """

    #: True for shards whose process the router owns (spawned locally).
    #: Attached :class:`RemoteShard` instances override this with False:
    #: the autoscaler supervises them (dead-reap) but never retires them
    #: to scale down and never "replaces" one by spawning a local process.
    spawned = True

    def __init__(self, name: str) -> None:
        self.name = name
        self.draining = False

    @abc.abstractmethod
    async def start(self) -> None:
        """Bring the backend up (idempotence not required)."""

    @abc.abstractmethod
    async def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        """One request in decoded form; raises ``ConnectionError`` on transport loss."""

    @abc.abstractmethod
    async def send(self, payload: Dict[str, object]) -> None:
        """Fire-and-forget (unacknowledged ops): no response expected."""

    @property
    @abc.abstractmethod
    def alive(self) -> bool:
        """False once the backend is known dead or stopped."""

    @abc.abstractmethod
    async def stop(self) -> None:
        """Orderly shutdown (the backend finished draining or is retired)."""

    @abc.abstractmethod
    async def kill(self) -> None:
        """Abrupt termination — the crash path (tests, failure drills)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"<{type(self).__name__} {self.name} {state}>"


class InprocShard(ShardHandle):
    """A shard embedded in the router's event loop (no subprocess, no wire)."""

    def __init__(self, name: str, service_config) -> None:
        super().__init__(name)
        self._config = service_config
        self._service = None
        self._killed = False

    @property
    def service(self):
        """The embedded :class:`~repro.service.SolverService` (tests poke it)."""
        return self._service

    async def start(self) -> None:
        from repro.service import SolverService

        self._service = SolverService(self._config)
        await self._service.start()

    @property
    def alive(self) -> bool:
        return (
            not self._killed
            and self._service is not None
            and self._service.is_running
        )

    async def request(self, payload: Dict[str, object]) -> Mapping[str, object]:
        if not self.alive:
            raise ConnectionError(f"shard {self.name} is down")
        try:
            response = await self._service.handle(payload)
        except asyncio.CancelledError:
            # A kill closes the embedded service un-drained, cancelling its
            # in-flight waiters.  A dead *process* shard surfaces the same
            # moment as ConnectionError — translate so the router's
            # retry-on-shard-loss path treats both backends identically.
            if self._killed or not self.alive:
                raise ConnectionError(
                    f"shard {self.name} was killed mid-request"
                ) from None
            raise
        if response is None:
            # An unacknowledged op answered through request() — protocol
            # misuse by the caller, not a shard failure.
            raise RuntimeError("unacknowledged op sent through request(); use send()")
        return response

    async def send(self, payload: Dict[str, object]) -> None:
        if not self.alive:
            raise ConnectionError(f"shard {self.name} is down")
        await self._service.handle(payload)

    async def stop(self) -> None:
        if self._service is not None and self._service.is_running:
            await self._service.close(drain=True)

    async def kill(self) -> None:
        self._killed = True
        if self._service is not None and self._service.is_running:
            await self._service.close(drain=False)


class ProcessShard(ShardHandle):
    """A shard running as a real ``repro serve`` subprocess over TCP.

    ``service_config`` is the shard's
    :class:`~repro.service.ServiceConfig`, the same one an
    :class:`InprocShard` takes
    (:meth:`~repro.cluster.config.ClusterConfig.shard_service_config`);
    its ``cache`` must be a directory or ``False``.  The subprocess is
    started with the ``repro serve`` flags of the fields a cluster sets
    and listens on :attr:`host`.  ``stop_timeout`` bounds both the
    ``shutdown`` round-trip and the SIGTERM exit wait
    (``ClusterConfig.drain_timeout``).
    """

    #: A spawned shard runs beside its router, which reaches it over loopback.
    host = "127.0.0.1"

    def __init__(self, name: str, service_config, stop_timeout: float = 10.0) -> None:
        super().__init__(name)
        self._stop_timeout = float(stop_timeout)
        cfg = service_config
        # ``repro serve`` reads a session TTL of 0 as "never expire".
        ttl = cfg.session_ttl if cfg.session_ttl is not None else 0
        self._argv = [
            sys.executable, "-m", "repro", "serve",
            "--host", self.host, "--port", "0",
            "--workers", str(cfg.workers),
            "--max-pending", str(cfg.max_pending),
            "--policy", cfg.backpressure,
            "--max-sessions", str(cfg.max_sessions),
            "--session-ttl", str(ttl),
        ]
        if cfg.default_timeout is not None:
            self._argv += ["--timeout", str(cfg.default_timeout)]
        if cfg.cache is not None and cfg.cache is not False:
            self._argv += ["--cache", str(cfg.cache)]
        if cfg.auto_timeouts:
            self._argv += ["--auto-timeouts"]
        if cfg.trace:
            self._argv += ["--trace"]
        self.port: Optional[int] = None
        self._proc: Optional["asyncio.subprocess.Process"] = None
        self._client = None
        self._stderr_task: Optional["asyncio.Task"] = None
        self._stderr_tail: List[str] = []

    async def start(self) -> None:
        from repro.service.client import ServiceClient

        # ``start_new_session=True`` puts the shard — and every solver
        # worker it forks — into its own process group, so killing the
        # shard kills the whole tree.  Without it, a SIGKILLed shard
        # orphans its pool workers, which keep the inherited stderr pipe
        # and socket fds open: ``Process.wait()`` then never resolves
        # (CPython resolves exit waiters only once every pipe
        # disconnects) and the workers leak.
        self._proc = await asyncio.create_subprocess_exec(
            *self._argv,
            stdin=asyncio.subprocess.DEVNULL,
            stdout=asyncio.subprocess.DEVNULL,
            stderr=asyncio.subprocess.PIPE,
            env=dict(os.environ),
            start_new_session=True,
        )
        try:
            banner = await asyncio.wait_for(
                self._proc.stderr.readline(), timeout=_SPAWN_TIMEOUT
            )
        except asyncio.TimeoutError:
            await self.kill()
            raise ShardStartError(
                f"shard {self.name}: no listening banner within {_SPAWN_TIMEOUT}s"
            ) from None
        match = _BANNER_RE.search(banner.decode("utf-8", "replace"))
        if not match:
            await self.kill()
            raise ShardStartError(
                f"shard {self.name}: unexpected banner {banner!r}"
            )
        self.port = int(match.group(1))
        # Keep draining stderr so the child can never block on a full pipe;
        # remember a short tail for post-mortem diagnostics.
        self._stderr_task = asyncio.create_task(self._drain_stderr())
        try:
            self._client = await ServiceClient.connect(self.host, self.port)
        except OSError as exc:
            await self.kill()
            raise ShardStartError(f"shard {self.name}: connect failed: {exc}") from None
        log_event("shard_spawned", shard=self.name, port=self.port,
                  pid=self._proc.pid)

    async def _drain_stderr(self) -> None:
        assert self._proc is not None
        try:
            while True:
                line = await self._proc.stderr.readline()
                if not line:
                    return
                self._stderr_tail.append(line.decode("utf-8", "replace").rstrip())
                del self._stderr_tail[:-20]
        except (ConnectionError, OSError, asyncio.CancelledError):  # pragma: no cover
            return

    @property
    def alive(self) -> bool:
        return (
            self._proc is not None
            and self._proc.returncode is None
            and self._client is not None
        )

    async def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        if not self.alive:
            raise ConnectionError(f"shard {self.name} is down")
        return await self._client.request_raw(payload)

    async def send(self, payload: Dict[str, object]) -> None:
        if not self.alive:
            raise ConnectionError(f"shard {self.name} is down")
        await self._client.send(payload)

    async def stop(self) -> None:
        if self._proc is None:
            return
        if self.alive:
            try:
                await asyncio.wait_for(
                    self._client.request_raw({"op": "shutdown"}),
                    timeout=self._stop_timeout,
                )
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pass
        await self._reap(graceful=True)

    async def kill(self) -> None:
        await self._reap(graceful=False)

    def _signal_group(self, sig: int) -> None:
        """Deliver ``sig`` to the shard's whole process group (see start)."""
        assert self._proc is not None
        try:
            os.killpg(self._proc.pid, sig)
        except (ProcessLookupError, PermissionError):  # pragma: no cover
            try:
                self._proc.send_signal(sig)
            except ProcessLookupError:
                pass

    @staticmethod
    async def _wait_exit(proc, timeout: float) -> bool:
        """Poll for process exit via ``returncode`` (never ``proc.wait()``).

        ``returncode`` is set by the child watcher the moment the process
        is reaped; ``Process.wait()`` additionally waits for every pipe to
        disconnect, which can hang forever while a crashed shard's
        lingering children hold inherited fds open.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while proc.returncode is None:
            if loop.time() >= deadline:
                return False
            await asyncio.sleep(0.02)
        return True

    async def _reap(self, graceful: bool) -> None:
        import signal

        proc = self._proc  # kept on self: ``alive`` reads its returncode
        if proc is None:
            return
        log_event("shard_reaped", shard=self.name, graceful=graceful,
                  returncode=proc.returncode)
        if proc.returncode is None:
            if graceful:
                self._signal_group(signal.SIGTERM)
                if not await self._wait_exit(proc, self._stop_timeout):  # pragma: no cover
                    self._signal_group(signal.SIGKILL)
                    await self._wait_exit(proc, 10.0)
            else:
                self._signal_group(signal.SIGKILL)
                await self._wait_exit(proc, 10.0)
        if self._stderr_task is not None:
            # The process is dead, so stderr EOFs promptly: await (don't
            # cancel) the drain task — consuming the pipe to EOF lets the
            # subprocess transport close while the loop is still running
            # (a cancelled reader leaks the pipe until interpreter exit).
            try:
                await asyncio.wait_for(self._stderr_task, timeout=5.0)
            except asyncio.TimeoutError:  # pragma: no cover - wedged pipe
                self._stderr_task.cancel()
                try:
                    await self._stderr_task
                except asyncio.CancelledError:
                    pass
            self._stderr_task = None
        if self._client is not None:
            client, self._client = self._client, None
            await client.close()
        # Close the subprocess transport now, while the loop is live: the
        # Process/transport/protocol trio forms a reference cycle that only
        # the cycle collector would free — usually at interpreter exit,
        # where the transport's __del__ warns "Event loop is closed".
        transport = getattr(proc, "_transport", None)
        if transport is not None:
            try:
                transport.close()
            except (RuntimeError, OSError):  # pragma: no cover - loop gone
                pass
        self._proc = None

    def stderr_tail(self) -> List[str]:
        """Last stderr lines of the subprocess (diagnostics)."""
        return list(self._stderr_tail)


class RemoteShard(ShardHandle):
    """A shard on another host, attached by ``host:port`` rather than spawned.

    The remote ``repro serve`` belongs to somebody else — another box,
    another supervisor.  This handle therefore owns only the *connection*:
    ``start()`` connects, ``stop()``/``kill()`` sever (never a ``shutdown``
    request), and death is detected by the router's periodic :meth:`probe`
    on the wire-level ``ping`` op rather than by a child returncode.

    Each remote host runs against its **own** cache directory — there is
    no shared filesystem to assume.  Cross-host cache coherence comes
    from routing, not storage: rendezvous hashing sends a given request
    key to one shard, so one host's cache sees every repeat of the keys
    it owns (see the affinity note in ``router.py``).
    """

    spawned = False

    def __init__(self, name: str, host: str, port: int) -> None:
        super().__init__(name)
        self.host = host
        self.port = int(port)
        self._client = None
        self._severed = False
        #: Consecutive failed probes; reset to zero by any success.  The
        #: router marks the shard dead once this crosses
        #: ``ClusterConfig.probe_failures``.
        self.probe_failures = 0
        #: The last ``load`` summary a successful probe brought back.
        self.last_load: Optional[Dict[str, object]] = None

    @classmethod
    def parse(cls, name: str, address: str) -> "RemoteShard":
        """Build a handle from a CLI-style ``host:port`` address."""
        host, sep, port = str(address).rpartition(":")
        if not sep or not host or not port.isdigit():
            raise ValueError(
                f"invalid shard address {address!r} (expected host:port)"
            )
        return cls(name, host, int(port))

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def start(self) -> None:
        from repro.service.client import ServiceClient

        try:
            self._client = await ServiceClient.connect(self.host, self.port)
        except OSError as exc:
            raise ShardStartError(
                f"shard {self.name}: connect to {self.address} failed: {exc}"
            ) from None
        self._severed = False

    @property
    def alive(self) -> bool:
        return self._client is not None and not self._severed

    async def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        if not self.alive:
            raise ConnectionError(f"shard {self.name} is down")
        return await self._client.request_raw(payload)

    async def send(self, payload: Dict[str, object]) -> None:
        if not self.alive:
            raise ConnectionError(f"shard {self.name} is down")
        await self._client.send(payload)

    async def probe(self, timeout: float) -> Dict[str, object]:
        """One health probe: ``ping`` with a deadline.

        Success resets the failure streak and caches the response's
        ``load`` summary; failure (timeout or transport loss) increments
        the streak and raises ``ConnectionError`` so callers share the
        router's usual dead-shard vocabulary.
        """
        try:
            response = await asyncio.wait_for(
                self.request({"op": "ping"}), timeout=timeout
            )
        except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
            self.probe_failures += 1
            raise ConnectionError(
                f"shard {self.name}: probe failed: {exc}"
            ) from None
        self.probe_failures = 0
        load = response.get("load")
        if isinstance(load, dict):
            self.last_load = load
        return response

    async def stop(self) -> None:
        # Not ours to shut down: detaching must leave the remote serving.
        await self._sever()

    async def kill(self) -> None:
        await self._sever()

    async def _sever(self) -> None:
        self._severed = True
        if self._client is not None:
            client, self._client = self._client, None
            await client.close()
