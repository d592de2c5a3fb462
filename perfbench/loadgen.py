"""Closed- and open-loop load over one TCP connection.

Every request line is encoded before the clock; during a measured phase
the generator only concatenates an id prefix with a pre-encoded body,
writes it, and files the raw response under its id.  Responses are
decoded and checked after the clock.

The open loop follows a Poisson schedule fixed before the clock and
times each request from its *scheduled* send time, so a stalled server
cannot hide the queue it builds (no coordinated omission).  How late the
generator itself sent each request is recorded as its lag.
"""

from __future__ import annotations

import asyncio
import re
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.service.protocol import ProtocolError, decode_message
from repro.service.server import READER_LIMIT


@dataclass
class Sent:
    rid: int
    pid: int
    due: float  # scheduled send time (perf_counter); = sent for closed loops
    sent: float
    nbytes: int
    done: float = 0.0
    raw: bytes = b""


def host_steal() -> Tuple[int, int]:
    """(steal, total) CPU jiffies from /proc/stat; (0, 0) where unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def steal_share(start: Tuple[int, int], end: Tuple[int, int]) -> float:
    """Share of all CPU time the hypervisor took between two readings."""
    return (end[0] - start[0]) / (end[1] - start[1]) if end[1] > start[1] else 0.0


@dataclass
class PhaseResult:
    phase: str
    sends: List[Sent] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0
    cpu_s: float = 0.0
    #: Host CPU steal over the phase (see ``steal_share``).
    steal: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


#: A phase that waits this long for an answer is abandoned as stalled.
STALL_S = 60.0
_TRAILING_ID = re.compile(rb',"id":(\d+)}\s*$')


def _response_id(line: bytes) -> Optional[int]:
    # Fresh responses carry ``id`` first (b'{"id":17,"ok":...'); the
    # router re-stamps its cached replies with ``id`` last.  Anything
    # else takes a full decode.
    if line.startswith(b'{"id":'):
        end = line.find(b",", 6)
        if line[6:end].isdigit():
            return int(line[6:end])
    match = _TRAILING_ID.search(line)
    if match:
        return int(match.group(1))
    try:
        rid = decode_message(line).get("id")
    except ProtocolError:
        return None
    return rid if isinstance(rid, int) else None


class Connection:
    """One client connection that files responses by integer request id."""

    def __init__(self, bodies: Callable[[int], bytes]) -> None:
        self._body = bodies
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._waiting: Dict[int, Sent] = {}
        self._on_done: Optional[Callable[[Sent], None]] = None
        self._read_task: Optional[asyncio.Task] = None
        self._next_rid = 0
        self.stray: List[bytes] = []
        self.closed = asyncio.Event()

    async def open(self, port: int) -> "Connection":
        self._reader, self._writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=READER_LIMIT)
        self._read_task = asyncio.create_task(self._read_loop())
        return self

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                now = time.perf_counter()
                sent = self._waiting.pop(_response_id(line), None)
                if sent is None:
                    self.stray.append(line)
                    continue
                sent.done, sent.raw = now, line
                if self._on_done is not None:
                    self._on_done(sent)
        except (ConnectionError, OSError):
            pass
        finally:
            self.closed.set()

    def send(self, pid: int, due: Optional[float] = None) -> Sent:
        self._next_rid += 1
        rid = self._next_rid
        data = b'{"id":%d,' % rid + self._body(pid)
        now = time.perf_counter()
        record = Sent(rid, pid, now if due is None else due, now, len(data))
        self._waiting[rid] = record
        self._writer.write(data)
        return record

    async def drain(self) -> None:
        await self._writer.drain()

    @property
    def outstanding(self) -> int:
        return len(self._waiting)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._read_task is not None:
            await self._read_task

    async def closed_loop(self, ids: Callable[[int], int], phase: str, window: int,
                          seconds: float, block: int, limit: int = 1 << 30) -> PhaseResult:
        """Keep ``window`` requests in flight for ``seconds``.

        Issuing stops at the first block boundary after the deadline (or
        after ``limit`` requests), then the loop waits for every answer.
        """
        result = PhaseResult(phase)
        finished = asyncio.get_running_loop().create_future()
        issued = 0
        stop_at = 0

        def issue() -> None:
            nonlocal issued
            result.sends.append(self.send(ids(issued)))
            issued += 1

        def on_done(_sent: Sent) -> None:
            nonlocal stop_at
            if not stop_at and (time.perf_counter() >= deadline or issued >= limit):
                stop_at = min(limit, -(-issued // block) * block)
            if not stop_at or issued < stop_at:
                issue()
            elif not self._waiting and not finished.done():
                finished.set_result(None)

        cpu0, steal0 = time.process_time(), host_steal()
        result.started = time.perf_counter()
        deadline = result.started + seconds
        self._on_done = on_done
        for _ in range(min(window, limit)):
            issue()
        await self.drain()
        await self._wait(finished)
        self._on_done = None
        result.ended = max(s.done for s in result.sends)
        result.cpu_s = time.process_time() - cpu0
        result.steal = steal_share(steal0, host_steal())
        return result

    async def open_loop(self, pids: Sequence[int], offsets: Sequence[float],
                        phase: str) -> PhaseResult:
        """Send ``pids[k]`` at ``start + offsets[k]`` regardless of answers."""
        result = PhaseResult(phase)
        finished = asyncio.get_running_loop().create_future()
        pending = len(offsets)

        def on_done(_sent: Sent) -> None:
            nonlocal pending
            pending -= 1
            if pending == 0 and not finished.done():
                finished.set_result(None)

        self._on_done = on_done
        cpu0, steal0 = time.process_time(), host_steal()
        result.started = start = time.perf_counter()
        for pid, offset in zip(pids, offsets):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            result.sends.append(self.send(pid, due))
        if pending:
            await self._wait(finished)
        self._on_done = None
        result.ended = max((s.done for s in result.sends), default=start)
        result.cpu_s = time.process_time() - cpu0
        result.steal = steal_share(steal0, host_steal())
        return result

    async def serial(self, pids: Sequence[int], phase: str) -> PhaseResult:
        """Depth-1 pass: each request waits for the previous answer."""
        result = PhaseResult(phase)
        result.started = time.perf_counter()
        for pid in pids:
            done = asyncio.get_running_loop().create_future()
            self._on_done = lambda _s, f=done: f.done() or f.set_result(None)
            result.sends.append(self.send(pid))
            await self._wait(done)
        self._on_done = None
        result.ended = time.perf_counter()
        return result

    async def _wait(self, future: "asyncio.Future") -> None:
        """Wait for ``future``, the connection to drop, or a stall."""
        closed = asyncio.ensure_future(self.closed.wait())
        try:
            await asyncio.wait({future, closed}, timeout=STALL_S,
                               return_when=asyncio.FIRST_COMPLETED)
        finally:
            closed.cancel()
        if not future.done():
            raise ConnectionError(
                f"connection closed or stalled with {self.outstanding} requests unanswered")
