"""The connection loop: raw bytes in, one line out, on both front ends.

:func:`repro.service.server.serve_connection` frames request lines from
what its reader has buffered and answers repeat lines from the response
tier by their raw bytes.  Covered here:

* **raw bytes, one line out** — a pipelined byte stream, cut into chunks
  at arbitrary points, mixing repeat lines the tier answers from their
  bytes, tier hits, cache misses, blank lines, invalid JSON, unknown ops
  and unacknowledged ``session_submit`` ops: every line that expects a
  response gets exactly one, carrying its own id, byte-equal to the
  answer of the decoding path (each line decoded and handled on its own),
  and ``lost == 0``, from ``repro serve`` and from an inproc cluster;
* **over-limit lines** — a line past :data:`~repro.service.server.READER_LIMIT`
  gets one ``too_large`` error line and then the connection closes, on
  TCP and on stdio;
* **backpressure** — a client that pipelines without reading its answers
  stops the server reading, instead of making it buffer without bound,
  and every line is answered once the client reads;
* **connection lifecycle** — the client of a fresh service whose first
  request runs in the process pool sees the server hang up, and a loop
  torn down with a connection open logs no traceback.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import os
import re
import shutil
import socket
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterRouter
from repro.core.instance import Instance
from repro.service import ServiceConfig, SolverService, server
from repro.service.protocol import (
    ProtocolError,
    decode_message,
    encode_message,
    solve_request,
)
from repro.service.server import serve_tcp
from repro.solvers import DiskCache, LRUCache, solve


def run(coro):
    return asyncio.run(coro)


INSTANCES = [
    Instance.from_lists(p=[4, 3, 2, 2, 1], s=[1, 5, 2, 4, 3], m=2),
    Instance.from_lists(p=[9, 8, 7, 6, 5, 4, 3], s=[2, 6, 1, 9, 4, 3, 8], m=3),
    Instance.from_lists(p=[5, 5, 1, 7], s=[3, 2, 2, 1], m=2),
]


def _solve_body(instance: Instance) -> bytes:
    return encode_message({"op": "solve", "instance": instance.to_dict(), "spec": "lpt"})


BODIES = [_solve_body(instance) for instance in INSTANCES]

#: One step of a stream: a solve of a warm instance with an integer id
#: leading (the form the tier aliases), a string id trailing or an integer
#: id after the op; a variant the tier only answers after a decode; a
#: solve of an instance no one asked for before; a blank line; a line
#: that is not JSON; an unknown op; an unacknowledged submit.
steps = st.one_of(
    st.tuples(st.just("warm"), st.integers(0, len(INSTANCES) - 1),
              st.sampled_from(["leading", "leading", "trailing", "middle"])),
    st.tuples(st.just("variant"), st.integers(0, len(INSTANCES) - 1),
              st.sampled_from(["spaced", "traced"])),
    st.tuples(st.just("fresh")),
    st.tuples(st.just("blank"), st.sampled_from([b"", b"  ", b"\t", b"\r"])),
    st.tuples(st.just("invalid"), st.sampled_from([b"not json", b'{"id":3,"op":', b"[1,2]"])),
    st.tuples(st.just("unknown")),
    st.tuples(st.just("submit")),
)


def render(steps_, session: str, fresh_ids) -> list:
    """The request lines (without their newline) of ``steps_``."""
    lines = []
    for number, step in enumerate(steps_):
        kind = step[0]
        if kind == "warm":
            body = BODIES[step[1]]
            if step[2] == "leading":
                lines.append(b'{"id":%d,' % number + body[1:-1])
            elif step[2] == "trailing":
                lines.append(body[:-2] + b',"id":"s%d"}' % number)
            else:
                lines.append(b'{"op":"solve","id":%d,' % number + body[len(b'{"op":"solve",'):-1])
        elif kind == "variant":
            body = BODIES[step[1]]
            if step[2] == "spaced":
                body = body.replace(b'"spec":"lpt"', b'"spec": "lpt"')
            else:
                body = body[:-2] + b',"trace":{"id":"t%d","span":"s"}}\n' % number
            lines.append(b'{"id":%d,' % number + body[1:-1])
        elif kind == "fresh":
            k = next(fresh_ids)
            instance = Instance.from_lists(p=[k + 1.5, 2, 3], s=[1, k + 2.5, 1], m=2)
            lines.append(b'{"id":%d,' % number + _solve_body(instance)[1:-1])
        elif kind in ("blank", "invalid"):
            lines.append(step[1])
        elif kind == "unknown":
            lines.append(b'{"id":%d,"op":"frobnicate"}' % number)
        else:
            task = {"id": f"t{number}", "p": 1.0 + number % 3, "s": 1.0}
            lines.append(encode_message({"op": "session_submit", "session": session,
                                         "task": task, "ack": False})[:-1])
    return lines


async def decoding_path(handle, line: bytes):
    """The answer of the decoding path to one line: decoded and handled on
    its own (``None`` where no response line is written)."""
    if not line.strip():
        return None
    try:
        request = decode_message(line)
    except ProtocolError as exc:
        return encode_message({"id": None, "ok": False,
                               "error": {"type": "ProtocolError", "message": str(exc)}})
    response = await handle(request)
    return None if response is None else encode_message(response)


def _without_wall_time(line: bytes) -> bytes:
    return re.sub(rb'"wall_time":[^,}]*', b'"wall_time":0', line)


def by_id(lines) -> tuple:
    """``({id: line}, [lines answering no id])``; each id at most once."""
    answered, anonymous = {}, []
    for line in lines:
        rid = json.loads(line)["id"]
        if rid is None:
            anonymous.append(line)
        else:
            assert rid not in answered, f"two responses for id {rid!r}"
            answered[rid] = line
    return answered, sorted(anonymous)


async def send_stream(port: int, stream: bytes, cuts) -> list:
    """Write ``stream`` in chunks cut at ``cuts``, close the write side,
    and read every response line until the server hangs up."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port,
                                                   limit=server.READER_LIMIT)
    bounds = sorted({int(len(stream) * cut) for cut in cuts} | {0, len(stream)})
    for start, end in zip(bounds, bounds[1:]):
        writer.write(stream[start:end])
        await writer.drain()
        await asyncio.sleep(0.001)
    writer.write_eof()
    responses = []
    while True:
        line = await asyncio.wait_for(reader.readline(), 30)
        if not line:
            break
        responses.append(line)
    writer.close()
    return responses


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A disk cache holding the answers to the warm instances."""
    path = tmp_path_factory.mktemp("warm-cache")
    for instance in INSTANCES:
        solve(instance, "lpt", cache=DiskCache(str(path)))
    return path


def _copy(warm_cache, tmp_path, name: str) -> str:
    target = tmp_path / name
    if target.exists():
        shutil.rmtree(target)
    shutil.copytree(warm_cache, target)
    return str(target)


class TestRawBytesOneLineOut:
    """Both front ends against the decoding path, over the same streams."""

    @staticmethod
    def _check(subject_lines, expected) -> None:
        answered, anonymous = by_id(subject_lines)
        want_answered, want_anonymous = by_id([line for line in expected if line is not None])
        assert answered.keys() == want_answered.keys()
        for rid, line in want_answered.items():
            assert _without_wall_time(answered[rid]) == _without_wall_time(line), rid
        assert anonymous == want_anonymous

    def _stream(self, data, session: str) -> tuple:
        drawn = data.draw(st.lists(steps, min_size=1, max_size=40), label="steps")
        lines = render(drawn, session, itertools.count(len(drawn) * 1000))
        lines.append(b'{"id":"close","op":"session_close","session":"%s"}' % session.encode())
        cuts = data.draw(st.lists(st.floats(0, 1), max_size=6), label="cuts")
        newline_at_end = data.draw(st.booleans(), label="newline at end")
        stream = b"\n".join(lines) + (b"\n" if newline_at_end else b"")
        return lines, stream, cuts

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_service(self, data, warm_cache, tmp_path):
        async def scenario():
            served = []
            for name in ("subject", "reference"):
                config = ServiceConfig(workers=1, cache=_copy(warm_cache, tmp_path, name))
                async with SolverService(config) as svc:
                    opened = await svc.handle(
                        {"op": "session_open", "spec": "online_greedy", "m": 2})
                    if name == "subject":
                        lines, stream, cuts = self._stream(data, opened["session"])
                        front = await serve_tcp(svc, port=0)
                        port = front.sockets[0].getsockname()[1]
                        served.append(await send_stream(port, stream, cuts))
                        front.close()
                        await front.wait_closed()
                    else:
                        served.append([await decoding_path(svc.handle, line) for line in lines])
                    assert svc.stats().lost == 0
            self._check(*served)

        run(scenario())

    @pytest.mark.cluster
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_cluster(self, data, warm_cache, tmp_path):
        async def scenario():
            served = []
            for name in ("subject", "reference"):
                config = ClusterConfig(shards=1, min_shards=1, max_shards=1, backend="inproc",
                                       workers=1, cache=_copy(warm_cache, tmp_path, name),
                                       session_ttl=None, router_cache=8)
                async with ClusterRouter(config) as router:
                    opened = await router.handle(
                        {"op": "session_open", "spec": "online_greedy", "m": 2})
                    if name == "subject":
                        lines, stream, cuts = self._stream(data, opened["session"])
                        front = await serve_tcp(router, port=0)
                        port = front.sockets[0].getsockname()[1]
                        served.append(await send_stream(port, stream, cuts))
                        front.close()
                        await front.wait_closed()
                    else:
                        served.append([await decoding_path(router.handle, line)
                                       for line in lines])
                    stats = await router.stats()
                    assert stats.lost == 0 and stats.router["lost"] == 0
            self._check(*served)

        run(scenario())

    def test_repeats_are_answered_from_their_bytes(self, warm_cache, tmp_path, monkeypatch):
        """The stream shape the property test draws does reach the alias."""
        decodes = []

        def counting(raw):
            decodes.append(raw)
            return decode_message(raw)

        monkeypatch.setattr(server, "decode_message", counting)
        lines = render([("warm", 0, "leading")] * 3, "none", itertools.count())

        async def scenario():
            config = ServiceConfig(workers=1, cache=_copy(warm_cache, tmp_path, "alias"))
            async with SolverService(config) as svc:
                front = await serve_tcp(svc, port=0)
                port = front.sockets[0].getsockname()[1]
                # A cache hit the tier admits, a tier hit that aliases the
                # line, then repeats answered from their bytes.
                for line in lines:
                    await send_stream(port, line + b"\n", [])
                burst = render([("warm", 0, "leading")] * 40, "none", itertools.count())
                answers = await send_stream(port, b"\n".join(burst) + b"\n", [0.3, 0.7])
                front.close()
                await front.wait_closed()
                assert len(answers) == 40 and svc.stats().cache_hits == 43

        run(scenario())
        assert len(decodes) == 2


# --------------------------------------------------------------------------- #
# a line past the limit
# --------------------------------------------------------------------------- #
def _assert_too_large(answers, limit: int) -> None:
    """One answer to the line before, and one ``too_large`` error."""
    assert len(answers) == 2, answers
    ping, error = sorted((json.loads(line) for line in answers), key=lambda r: r["ok"],
                         reverse=True)
    assert ping["id"] == 1 and ping["ok"] is True
    assert error["id"] is None and error["ok"] is False
    assert error["error"]["type"] == "ProtocolError"
    assert error["error"]["code"] == "too_large"
    assert str(limit) in error["error"]["message"]


class TestOverLimit:
    LIMIT = 2048

    def _lines(self, terminated: bool) -> bytes:
        ping = b'{"id":1,"op":"ping"}\n'
        long_line = b'{"id":2,"op":"ping","pad":"' + b"x" * (2 * self.LIMIT) + b'"}'
        return ping + long_line + (b"\n" if terminated else b"")

    @pytest.mark.parametrize("terminated", [True, False])
    def test_tcp(self, monkeypatch, terminated):
        monkeypatch.setattr(server, "READER_LIMIT", self.LIMIT)

        async def scenario():
            async with SolverService(workers=1) as svc:
                front = await serve_tcp(svc, port=0)
                port = front.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(self._lines(terminated))  # the write side stays open
                await writer.drain()
                answers = []
                while True:
                    line = await asyncio.wait_for(reader.readline(), 30)
                    if not line:  # the server hung up
                        break
                    answers.append(line)
                writer.close()
                front.close()
                await front.wait_closed()
                return answers

        _assert_too_large(run(scenario()), self.LIMIT)

    def test_stdio(self, monkeypatch):
        monkeypatch.setattr(server, "READER_LIMIT", self.LIMIT)
        stdin_r, stdin_w = os.pipe()
        stdout_r, stdout_w = os.pipe()
        os.write(stdin_w, self._lines(True))  # fits the pipe buffer; stdin stays open
        monkeypatch.setattr(sys, "stdin", os.fdopen(stdin_r, "rb", 0))
        monkeypatch.setattr(sys, "stdout", os.fdopen(stdout_w, "wb", 0))

        async def scenario():
            async with SolverService(workers=1) as svc:
                await asyncio.wait_for(server.serve_stdio(svc), 30)

        try:
            run(scenario())
            with os.fdopen(stdout_r, "rb") as out:  # the server closed its stdout
                answers = out.read().splitlines(keepends=True)
        finally:
            os.close(stdin_w)
        _assert_too_large(answers, self.LIMIT)


# --------------------------------------------------------------------------- #
# backpressure
# --------------------------------------------------------------------------- #
class TestBackpressure:
    def test_a_client_that_does_not_read_stops_the_server_reading(self, monkeypatch):
        # Small reader and socket buffers, so the stop shows after a few
        # hundred lines instead of megabytes.
        monkeypatch.setattr(server, "READER_LIMIT", 16384)
        instance = Instance.from_lists(p=list(range(1, 121)), s=list(range(120, 0, -1)), m=4)
        body = _solve_body(instance)
        total = 3000

        async def settled(svc) -> int:
            """The service's submission count once it stops moving."""
            last = -1
            while svc.stats().submitted != last:
                last = svc.stats().submitted
                await asyncio.sleep(0.3)
            return last

        async def scenario():
            async with SolverService(workers=1, cache=LRUCache()) as svc:
                front = await serve_tcp(svc, port=0)
                front.sockets[0].setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 16384)
                port = front.sockets[0].getsockname()[1]
                sock = socket.socket()
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 16384)
                sock.setblocking(False)
                await asyncio.get_running_loop().sock_connect(sock, ("127.0.0.1", port))
                reader, writer = await asyncio.open_connection(sock=sock)
                for rid in range(3):  # make the line a repeat the tier answers
                    writer.write(b'{"id":%d,' % rid + body[1:])
                    assert json.loads(await reader.readline())["ok"]
                for rid in range(3, total):
                    writer.write(b'{"id":%d,' % rid + body[1:])
                stalled = await settled(svc)
                # The server stopped reading: lines wait on the client side.
                assert stalled < total
                assert writer.transport.get_write_buffer_size() > 0
                seen = {0, 1, 2}
                while len(seen) < total:
                    response = json.loads(await asyncio.wait_for(reader.readline(), 60))
                    assert response["ok"] and response["id"] not in seen
                    seen.add(response["id"])
                assert seen == set(range(total))
                stats = svc.stats()
                assert stats.submitted == total and stats.lost == 0
                writer.close()
                front.close()
                await front.wait_closed()

        run(scenario())


# --------------------------------------------------------------------------- #
# connection lifecycle
# --------------------------------------------------------------------------- #
class TestConnectionLifecycle:
    def test_the_client_of_a_first_pool_job_sees_the_server_hang_up(self):
        """Pool workers exist before any connection, so none holds its socket."""

        async def scenario():
            async with SolverService(workers=1) as svc:
                front = await serve_tcp(svc, port=0)
                port = front.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(encode_message(solve_request(INSTANCES[1], "lpt", request_id=1)))
                writer.write_eof()
                answer = json.loads(await asyncio.wait_for(reader.readline(), 30))
                assert answer["ok"] and answer["id"] == 1
                assert svc.stats().inline == 0  # the first job of a spec runs in the pool
                assert await asyncio.wait_for(reader.read(), 5) == b""
                writer.close()
                front.close()
                await front.wait_closed()

        run(scenario())

    def test_loop_teardown_with_a_connection_open_logs_no_traceback(self, caplog):
        async def scenario():
            async with SolverService(workers=1) as svc:
                front = await serve_tcp(svc, port=0)
                port = front.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b'{"id":1,"op":"ping"}\n')
                assert json.loads(await asyncio.wait_for(reader.readline(), 30))["pong"]
            # asyncio.run ends with the connection open: its task is
            # cancelled in its read.

        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            run(scenario())
        cancelled = [record for record in caplog.records
                     if record.exc_info and isinstance(record.exc_info[1],
                                                        asyncio.CancelledError)]
        assert cancelled == []
