"""A ``python -m repro serve`` subprocess and the open-loop load generator
that drives it over a fixed number of keep-alive connections."""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Sequence

from measure import vm_hwm_mb

HOST = "127.0.0.1"
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


class Request(NamedTuple):
    due_s: float     # offset from the schedule start
    kind: str        # "hit" | "miss" | "bad"
    key: int         # index of the key it asks for (-1 for "bad")
    body: bytes


class Record(NamedTuple):
    late_s: float     # send time minus due time
    latency_s: float  # response time minus due time
    status: int
    cache: Optional[str]
    body: bytes
    connection: int


class Server:
    """One ``repro serve --workers 1`` process with an in-memory cache.
    It and its worker inherit this process's CPU."""

    def __init__(self, root: str, env: Dict[str, str]):
        self.root = root
        self.env = env
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self._conn: Optional[http.client.HTTPConnection] = None

    def start(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "1",
             "--host", HOST, "--port", "0", "--beam-width", "8"],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            start_new_session=True,
        )
        deadline = time.monotonic() + START_TIMEOUT_S
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, left))
            if not ready:
                raise RuntimeError("repro serve did not start in time")
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError("repro serve exited during start-up")
            line += chunk
        # "repro serve: listening on http://127.0.0.1:PORT (...)"
        self.port = int(line.split(b"http://", 1)[1].split(b":", 1)[1]
                        .split(b" ", 1)[0])
        self._conn = http.client.HTTPConnection(HOST, self.port,
                                                timeout=START_TIMEOUT_S)
        status, _, _ = self.get("/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")

    def post(self, body: bytes):
        self._conn.request("POST", "/compile", body=body,
                           headers={"Content-Type": "application/json"})
        response = self._conn.getresponse()
        return (response.status, response.getheader("X-Repro-Cache"),
                response.read())

    def get(self, path: str):
        self._conn.request("GET", path)
        response = self._conn.getresponse()
        return response.status, None, response.read()

    def metrics(self) -> Dict:
        status, _, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)

    def peak_rss_mb(self, metrics: Dict) -> float:
        """VmHWM of the server plus its workers."""
        pids = [self.proc.pid] + [w["pid"] for w in metrics["workers"]
                                  if w.get("pid")]
        return sum(vm_hwm_mb(pid) for pid in pids)

    def worker_pids(self) -> List[int]:
        return [w["pid"] for w in self.metrics()["workers"] if w.get("pid")]

    def stop(self) -> None:
        """Interrupt the server, then make sure its whole process group
        (the forked worker included) has ended."""
        if self.proc is None:
            return
        workers: List[int] = []
        if self._conn is not None:
            try:
                workers = self.worker_pids()
            except (OSError, http.client.HTTPException, ValueError):
                pass
            self._conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        for pid in workers:
            _wait_gone(pid)
        self.proc = None


def _wait_gone(pid: int, timeout_s: float = STOP_TIMEOUT_S) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except (FileNotFoundError, ProcessLookupError):
            return
        if state in ("Z", "X"):
            return
        time.sleep(0.01)
    raise RuntimeError(f"worker {pid} still running after the server")


# -- the open loop ------------------------------------------------------------

async def _exchange(reader, writer, body: bytes):
    writer.write(b"POST /compile HTTP/1.1\r\nHost: bench\r\n"
                 b"Content-Type: application/json\r\n"
                 b"Content-Length: %d\r\n\r\n" % len(body) + body)
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    payload = await reader.readexactly(int(headers.get("content-length",
                                                       "0")))
    return status, headers.get("x-repro-cache"), payload


async def _open_loop(port: int, schedule: Sequence[Request],
                     connections: int):
    queue: asyncio.Queue = asyncio.Queue()
    records: List[Optional[Record]] = [None] * len(schedule)
    streams = [await asyncio.open_connection(HOST, port)
               for _ in range(connections)]
    start = time.monotonic() + 0.05

    async def sender(index: int, reader, writer) -> None:
        while True:
            i = await queue.get()
            if i is None:
                return
            due = start + schedule[i].due_s
            sent = time.monotonic()
            status, cache, body = await _exchange(reader, writer,
                                                  schedule[i].body)
            records[i] = Record(sent - due, time.monotonic() - due,
                                status, cache, body, index)

    senders = [asyncio.create_task(sender(i, r, w))
               for i, (r, w) in enumerate(streams)]
    try:
        for i, request in enumerate(schedule):
            delay = start + request.due_s - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait(i)
        for _ in senders:
            queue.put_nowait(None)
        await asyncio.gather(*senders)
    finally:
        for task in senders:
            task.cancel()
        for _, writer in streams:
            writer.close()
    return records, start, time.monotonic()


def run_open_loop(port: int, schedule: Sequence[Request],
                  connections: int):
    """Send ``schedule`` (sorted by due time) on an open loop; returns
    the per-request records and the ``time.monotonic()`` of the
    schedule's start and of its last response.  A schedule whose
    requests are all due at 0 is a closed loop: each connection sends
    its next request as soon as its last one is answered.

    The generator's collector is off meanwhile: a collection pass over
    this process's heap would stall sending and be billed to the server
    as latency."""
    gc.disable()
    try:
        return asyncio.run(_open_loop(port, schedule, connections))
    finally:
        gc.enable()

