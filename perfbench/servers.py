"""Server lifecycle: spawn a shipped entry point, talk to it, stop it.

The server writes its listening banner to stderr.  Stderr goes to a
file, never to a pipe nobody reads: a child that fills an unread pipe
blocks, and stopping it then hangs.  A server stops through the
``shutdown`` wire op; killing its process group is only the fallback.
Its whole process tree (router, shards, pool workers) is walked in
``/proc`` for peak memory just before shutdown, and every process of
that tree must be gone afterwards, so that nothing outlives its launch
and loads the next one.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BANNER = re.compile(rb"listening on [^:\s]+:(\d+)")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


def _children_map() -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces and parentheses; fields after
        # the last ')' are fixed: state, ppid, ...
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    return children


def process_tree(pid: int) -> List[int]:
    """``pid`` and all its live descendants."""
    children = _children_map()
    tree, todo = [], [pid]
    while todo:
        current = todo.pop()
        tree.append(current)
        todo.extend(children.get(current, ()))
    return tree


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read()
    except OSError:
        return False
    return stat[stat.rindex(b")") + 2:][:1] != b"Z"


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", "rb") as fh:
                for line in fh:
                    if line.startswith(b"VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class Server:
    """One launch of ``repro serve`` or ``repro cluster`` on a free port."""

    def __init__(self, kind: str, root: Path, workdir: Path, cache_dir: Path) -> None:
        self.kind = kind
        self.root = root
        self.workdir = workdir
        self.cache_dir = cache_dir
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.setup_s = 0.0
        self._stderr = None
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._next_id = 0

    def argv(self) -> List[str]:
        common = ["--port", "0", "--workers", "1", "--cache", str(self.cache_dir)]
        if self.kind == "serve":
            return [sys.executable, "-m", "repro", "serve", *common]
        return [sys.executable, "-m", "repro", "cluster", *common,
                "--shards", "2", "--no-autoscale"]

    def start(self) -> "Server":
        """Spawn and wait for the first successful ``ping`` (``setup_s``)."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._stderr = open(self.workdir / f"{self.kind}.stderr", "w+b")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv(), cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._stderr, start_new_session=True,
        )
        deadline = started + START_TIMEOUT_S
        while not self.port:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"{self.kind} did not start: {self.stderr_text()[-2000:]}")
            time.sleep(0.002)
            self._stderr.seek(0)
            match = BANNER.search(self._stderr.read())
            if match:
                self.port = int(match.group(1))
        self._sock = socket.create_connection(("127.0.0.1", self.port), timeout=STOP_TIMEOUT_S)
        self._file = self._sock.makefile("rwb")
        response = self.request({"op": "ping"})
        if not response.get("ok"):
            raise RuntimeError(f"{self.kind} ping failed: {response}")
        self.setup_s = time.perf_counter() - started
        return self

    def stderr_text(self) -> str:
        if self._stderr is None:
            return ""
        self._stderr.seek(0)
        return self._stderr.read().decode("utf-8", "replace")

    def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        """One blocking request on the control connection."""
        self._next_id += 1
        payload = {"id": f"ctl-{self._next_id}", **payload}
        self._file.write(json.dumps(payload).encode() + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError(f"{self.kind} closed the control connection")
        return json.loads(line)

    def stats(self) -> Dict[str, object]:
        return self.request({"op": "stats"})["stats"]

    def tree(self) -> List[int]:
        return process_tree(self.proc.pid) if self.proc is not None else []

    def stop(self) -> List[int]:
        """Shut down; return the pids of the tree that had to be killed.

        The tree is captured before ``shutdown`` so forked pool workers
        and shards are checked too, not only the direct child.
        """
        if self.proc is None:
            return []
        tree = self.tree()
        try:
            if self._file is not None and self.proc.poll() is None:
                self.request({"op": "shutdown"})
        except (OSError, ValueError):
            pass
        finally:
            for handle in (self._file, self._sock):
                if handle is not None:
                    try:
                        handle.close()
                    except OSError:
                        pass
        try:
            self.proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.perf_counter() + STOP_TIMEOUT_S
        while time.perf_counter() < deadline and any(_alive(p) for p in tree):
            time.sleep(0.01)
        survivors = [p for p in tree if _alive(p)]
        if survivors or self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except OSError:
                pass
            for pid in survivors:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            self.proc.wait()
        if self._stderr is not None:
            self._stderr.close()
        self.proc = None
        return survivors
