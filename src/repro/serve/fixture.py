"""First-class test harness for the compile server.

:class:`ServerFixture` spawns a real :class:`CompileServer` (real
sockets, real worker processes) on a background event-loop thread,
waits for readiness, and exposes synchronous helpers so plain pytest
tests can drive it.  The fault-injection surface lives here too:

* ``kill_worker(i)`` — SIGKILL a worker process (also mid-request, via
  the ``fault="crash"`` request field when ``allow_faults`` is on);
* ``corrupt_cache_entry(key)`` — flip bytes in a disk cache entry;
* ``poison_artifact_hash()`` — change the server's artifact hash, as a
  regenerated offline phase would, orphaning every existing cache key.

:class:`ServeClient` is the matching minimal asyncio HTTP/1.1 client
(keep-alive, Content-Length framing).
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Dict, List, Optional, Tuple

from repro.serve.server import CompileServer, ServeConfig


class ServeClient:
    """Minimal asyncio HTTP client speaking the server's HTTP subset."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "ServeClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._writer = None
            self._reader = None

    async def request(self, method: str, path: str,
                      payload: Optional[Dict] = None
                      ) -> Tuple[int, Dict[str, str], Dict]:
        """One request/response on the (kept-alive) connection."""
        if self._writer is None:
            await self.connect()
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Content-Type: application/json\r\n"
            f"\r\n"
        ).encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()
        return await self._read_response()

    async def _read_response(self) -> Tuple[int, Dict[str, str], Dict]:
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        parts = status_line.decode("latin-1").split(None, 2)
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length) if length else b""
        doc = json.loads(raw.decode("utf-8")) if raw else {}
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, doc

    async def compile(self, **payload
                      ) -> Tuple[int, Dict[str, str], Dict]:
        return await self.request("POST", "/compile", payload)

    async def metrics(self) -> Dict:
        _status, _headers, doc = await self.request("GET", "/metrics")
        return doc


class ServerFixture:
    """Spawn/await-ready/teardown wrapper around a real server.

    Usage::

        with ServerFixture(workers=2, allow_faults=True) as server:
            status, headers, doc = server.compile(source=..., lang="ir")
            server.kill_worker(0)
    """

    #: Seconds to wait for the server to come up / tear down.
    READY_TIMEOUT_S = 30.0

    def __init__(self, config: Optional[ServeConfig] = None,
                 clock=None, **config_kwargs):
        if config is None:
            config = ServeConfig(**config_kwargs)
        elif config_kwargs:
            raise ValueError("pass either config or kwargs, not both")
        self.config = config
        self.clock = clock
        self.server: Optional[CompileServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ServerFixture":
        if self._thread is not None:
            raise RuntimeError("fixture already started")
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve-fixture",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(self.READY_TIMEOUT_S):
            raise TimeoutError("server did not become ready")
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start: {self._startup_error!r}"
            )
        return self

    def _thread_main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = CompileServer(self.config, clock=self.clock)
            loop.run_until_complete(server.start())
            self.server = server
        except BaseException as exc:  # surfaced to start()
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(server.stop())
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def stop(self) -> None:
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(self.READY_TIMEOUT_S)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ServerFixture":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- synchronous driving --------------------------------------------

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.config.host

    def run(self, coro, timeout: Optional[float] = None):
        """Run a coroutine on the server's loop from test code."""
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout or self.READY_TIMEOUT_S)

    def compile(self, timeout: Optional[float] = None, **payload
                ) -> Tuple[int, Dict[str, str], Dict]:
        client = ServeClient(self.host, self.port)

        async def _one_shot():
            try:
                await client.connect()
                return await client.compile(**payload)
            finally:
                await client.close()

        return self.run(_one_shot(), timeout=timeout)

    def metrics(self) -> Dict:
        client = ServeClient(self.host, self.port)

        async def _one_shot():
            try:
                await client.connect()
                return await client.metrics()
            finally:
                await client.close()

        return self.run(_one_shot())

    # -- fault injection ------------------------------------------------

    def kill_worker(self, index: int) -> Optional[int]:
        """SIGKILL worker ``index``; returns the killed pid."""
        return self.server.pool.kill_worker(index)

    def worker_pids(self) -> List[Optional[int]]:
        return [stats["pid"] for stats in self.server.pool.worker_stats()]

    def corrupt_cache_entry(self, key: str) -> str:
        """Flip bytes in ``key``'s on-disk entry; returns the path."""
        path = self.server.cache.entry_path(key)
        if path is None:
            raise RuntimeError("server has no disk cache tier")
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        # Corrupt well inside the stored body text so the JSON still
        # parses but the body hash no longer matches.
        mid = len(data) // 2
        data[mid] = (data[mid] + 1) % 128 or 97
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        return path

    def poison_artifact_hash(self,
                             value: str = "poisoned-artifact-hash") -> str:
        """Swap the server's artifact hash (simulates a regenerated
        offline phase); every existing cache key becomes unreachable."""
        old = self.server.artifact_hash
        self.server.artifact_hash = value
        return old
