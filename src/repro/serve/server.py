"""The asyncio JSON-over-HTTP compile server (``repro serve``).

Architecture (the Figure-3 split, long-lived):

* the *offline* phase is loaded once — the serialized
  ``vegen_targets.json`` artifact's content hash is part of every cache
  key, so a regenerated artifact can never serve stale results;
* the *online* phase runs in a hash-sharded
  :class:`~repro.serve.workers.WorkerPool` of processes, each holding
  warm :class:`~repro.session.VectorizationSession` objects;
* in front of both sits a two-tier content-addressed
  :class:`~repro.serve.cache.ResultCache`, so repeated requests are an
  O(1) lookup instead of a pack-selection search.

Routes::

    POST /compile   {"source": ..., "lang": "c"|"ir", "target": ...}
    GET  /metrics   counters, cache + worker stats, effective config
    GET  /healthz   liveness

The HTTP layer is a deliberately small HTTP/1.1 subset over
``asyncio.start_server`` (request line + headers + Content-Length
bodies, keep-alive) — stdlib only, enough for ``http.client`` and
``curl``.  A request the server cannot delimit (a malformed request
line, a ``Content-Length`` that is not one non-negative integer, a
``Transfer-Encoding``, a line over the stream limit) gets a 400, a body
over :data:`MAX_BODY_BYTES` a 413, both with ``Connection: close``, and
the connection is closed: the unread bytes are never parsed as a next
request.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.obs.counters import Counters
from repro.serve.cache import ResultCache, cache_key, current_artifact_hash
from repro.serve.clock import Deadline, MonotonicClock
from repro.serve.protocol import (
    RequestError,
    STATUS_REASONS,
    encode_body,
    error_body,
    parse_compile_request,
)
from repro.serve.workers import WorkerError, WorkerPool
from repro.vectorizer.context import VectorizerConfig

#: Largest accepted request body (a mini-C kernel is a few KB).
MAX_BODY_BYTES = 4 * 1024 * 1024


class FramingError(Exception):
    """A request the server will not read to its end: it answers
    ``status`` and closes the connection."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One line; a line over the stream's limit is a framing error."""
    try:
        return await reader.readline()
    except ValueError as exc:
        raise FramingError(
            400, f"request line or header too long: {exc}") from None


@dataclass
class ServeConfig:
    """Everything tunable about one server instance."""

    host: str = "127.0.0.1"
    port: int = 0                     # 0: pick a free port
    workers: int = 2                  # worker processes (>= 1)
    queue_depth: int = 64             # per-worker inbox bound
    max_pending: int = 256            # global in-flight bound (429 above)
    max_batch: int = 8                # requests per worker IPC round-trip
    default_timeout_s: Optional[float] = 30.0
    max_timeout_s: Optional[float] = 120.0
    cache_dir: Optional[str] = None   # None: memory-only cache
    cache_memory_entries: int = 1024
    cache_disk_limit_bytes: Optional[int] = None  # None: use the
                                      # REPRO_SERVE_CACHE_LIMIT env knob
    allow_faults: bool = False        # enable the fault-injection layer
    default_config: VectorizerConfig = field(
        default_factory=lambda: VectorizerConfig(beam_width=8)
    )


class CompileServer:
    """One long-lived compile service bound to a host/port."""

    def __init__(self, config: Optional[ServeConfig] = None, clock=None):
        self.config = config or ServeConfig()
        self.clock = clock if clock is not None else MonotonicClock()
        self.counters = Counters()
        self.cache = ResultCache(
            disk_dir=self.config.cache_dir,
            memory_entries=self.config.cache_memory_entries,
            disk_limit_bytes=self.config.cache_disk_limit_bytes,
        )
        self.pool = WorkerPool(
            self.config.workers,
            clock=self.clock,
            counters=self.counters,
            allow_faults=self.config.allow_faults,
            queue_depth=self.config.queue_depth,
            max_batch=self.config.max_batch,
        )
        #: Part of every cache key; the fault harness can poison it.
        self.artifact_hash = current_artifact_hash()
        self._server: Optional[asyncio.AbstractServer] = None
        self._started_at: Optional[float] = None
        self._draining = False
        self._connections: set = set()

    # -- lifecycle ------------------------------------------------------

    @property
    def port(self) -> Optional[int]:
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        await self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._started_at = time.time()

    async def stop(self) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        for task in list(self._connections):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._connections.clear()
        await self.pool.stop()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # -- HTTP plumbing --------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except FramingError as exc:
                    status, doc_bytes, headers = self._error(
                        exc.status, "bad-request", str(exc))
                    await self._write_response(
                        writer, status, doc_bytes, headers,
                        keep_alive=False)
                    break
                if request is None:
                    break
                method, path, body = request
                status, doc_bytes, headers = await self._route(
                    method, path, body
                )
                keep_alive = not self._draining
                await self._write_response(
                    writer, status, doc_bytes, headers, keep_alive
                )
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # server draining: finish quietly, not as an error
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError,
                    BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[Tuple[str, str, bytes]]:
        """``(method, path, body)``, or None at EOF; raises
        :class:`FramingError` when the request cannot be delimited or
        its body is over the limit."""
        request_line = await _read_line(reader)
        if not request_line:
            return None
        try:
            method, path, _version = (
                request_line.decode("latin-1").split(None, 2)
            )
        except ValueError:
            raise FramingError(
                400, f"malformed request line {request_line[:80]!r}"
            ) from None
        content_length = None
        while True:
            line = await _read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "transfer-encoding":
                raise FramingError(
                    400, "Transfer-Encoding is not supported; send the "
                         "body with a Content-Length")
            if name == "content-length":
                text = value.strip()
                if not (text.isascii() and text.isdigit()):
                    raise FramingError(
                        400, "Content-Length must be a non-negative "
                             f"integer, got {text!r}")
                length = int(text)
                if content_length not in (None, length):
                    raise FramingError(
                        400, "conflicting Content-Length headers")
                content_length = length
        content_length = content_length or 0
        if content_length > MAX_BODY_BYTES:
            raise FramingError(
                413, f"request body too large: {content_length} bytes "
                     f"(limit {MAX_BODY_BYTES})")
        body = b""
        if content_length:
            body = await reader.readexactly(content_length)
        return method, path, body

    async def _write_response(self, writer: asyncio.StreamWriter,
                              status: int, body: bytes,
                              headers: Dict[str, str],
                              keep_alive: bool) -> None:
        reason = STATUS_REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- routing --------------------------------------------------------

    async def _route(self, method: str, path: str, body: bytes
                     ) -> Tuple[int, bytes, Dict[str, str]]:
        path = path.split("?", 1)[0]
        if path == "/compile":
            if method != "POST":
                return self._error(405, "bad-request",
                                   "POST /compile")
            return await self._handle_compile(body)
        if path == "/metrics":
            if method != "GET":
                return self._error(405, "bad-request", "GET /metrics")
            return 200, encode_body(self.metrics()), {}
        if path == "/healthz":
            return 200, encode_body({"status": "ok"}), {}
        return self._error(404, "not-found", f"no route {path!r}")

    def _error(self, status: int, code: str, message: str
               ) -> Tuple[int, bytes, Dict[str, str]]:
        if status >= 400:
            self.counters.inc("serve.errors")
        return status, encode_body(error_body(code, message)), {}

    # -- the compile path -----------------------------------------------

    async def _handle_compile(self, body: bytes
                              ) -> Tuple[int, bytes, Dict[str, str]]:
        if self._draining:
            return self._error(503, "shutting-down",
                               "server is draining")
        self.counters.inc("serve.requests")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            return self._error(400, "bad-request",
                               f"body is not valid JSON: {exc}")
        except RecursionError:
            # Nesting deeper than the decoder's recursion limit: a
            # hostile body, not a server fault.
            return self._error(400, "bad-request",
                               "body is not valid JSON: nested too deeply")
        try:
            request = parse_compile_request(
                payload,
                default_timeout_s=self.config.default_timeout_s,
                max_timeout_s=self.config.max_timeout_s,
                allow_faults=self.config.allow_faults,
                default_config=self.config.default_config,
            )
        except RequestError as exc:
            return self._error(exc.status, "bad-request", str(exc))

        key = cache_key(request.canonical_ir, request.target,
                        request.config, self.artifact_hash)
        cached = self.cache.get(key, counters=self.counters)
        if cached is not None:
            return 200, cached, {"X-Repro-Cache": "hit",
                                 "X-Repro-Key": key}

        if self.pool.pending >= self.config.max_pending:
            self.counters.inc("serve.rejected")
            return self._error(
                429, "overloaded",
                f"{self.pool.pending} requests already in flight "
                f"(max_pending={self.config.max_pending}); retry later",
            )

        item = {
            "key": key,
            "ir": request.canonical_ir,
            "target": request.target,
            "config": request.config.canonical_dict(),
            "fault": request.fault,
        }
        deadline = Deadline(self.clock, request.timeout_s)
        try:
            result = await self.pool.submit(item, deadline)
        except WorkerError as exc:
            return self._error(exc.status, exc.code, exc.message)
        response = encode_body(result)
        # Fault-injected compiles are kept out of the cache: the harness
        # uses them to probe the pool, not to poison later hits.
        if request.fault is None:
            self.cache.put(key, response, counters=self.counters)
        return 200, response, {"X-Repro-Cache": "miss",
                               "X-Repro-Key": key}

    # -- metrics --------------------------------------------------------

    def metrics(self) -> Dict:
        uptime = (time.time() - self._started_at
                  if self._started_at is not None else 0.0)
        return {
            "schema": "repro-serve-metrics/v1",
            "uptime_s": round(uptime, 3),
            "counters": {
                name: value
                for name, value in self.counters.as_dict().items()
            },
            "artifact_hash": self.artifact_hash,
            "cache": {
                "memory_entries": len(self.cache),
                "memory_capacity": self.cache.memory_entries,
                "disk_entries": self.cache.disk_entries(),
                "disk_dir": self.cache.disk_dir,
            },
            "workers": self.pool.worker_stats(),
            "pending": self.pool.pending,
            "config": {
                "workers": self.config.workers,
                "queue_depth": self.config.queue_depth,
                "max_pending": self.config.max_pending,
                "max_batch": self.config.max_batch,
                "default_timeout_s": self.config.default_timeout_s,
                "max_timeout_s": self.config.max_timeout_s,
                "allow_faults": self.config.allow_faults,
                "vectorizer": self.config.default_config.canonical_dict(),
            },
        }


async def run_server(config: Optional[ServeConfig] = None) -> None:
    """Start a server and block until cancelled (the CLI entry point)."""
    server = CompileServer(config)
    await server.start()
    host = server.config.host
    print(f"repro serve: listening on http://{host}:{server.port} "
          f"({server.config.workers} workers, cache "
          f"{'at ' + server.config.cache_dir if server.config.cache_dir else 'in memory'})",
          flush=True)
    try:
        await server.serve_forever()
    finally:
        await server.stop()
