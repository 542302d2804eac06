"""Multi-process worker pool for the compile server.

Pack selection is CPU-bound pure Python, so concurrency has to come
from processes: the pool spawns N workers, each holding warm
:class:`~repro.session.VectorizationSession` objects (one per
(target, config) it has seen), and shards requests to workers by cache
key so identical requests always land on the same warm session.

The parent side is asyncio-native: each worker has a bounded inbox
queue drained by a dispatcher task that batches adjacent requests into
one IPC round-trip (the worker runs them through
``VectorizationSession.vectorize_many``).  Deadlines flow through
:class:`repro.serve.clock.Deadline` objects against an injectable
clock; a request that exceeds its deadline gets its worker SIGKILLed
(the only way to cancel CPU-bound pure-Python work) and the pool
respawns a replacement, so no worker slot is ever leaked.  A worker
that dies mid-request (crash, OOM kill, fault injection) surfaces as a
structured ``worker-crashed`` error on the affected requests only, and
the pool respawns it likewise.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
from typing import Dict, List, Optional

from repro.obs.counters import NULL_COUNTERS
from repro.serve.clock import Deadline, MonotonicClock

#: How often dispatcher tasks re-check an injectable deadline while
#: waiting on a worker (real seconds; the *decision* is clock-driven).
POLL_SLICE_S = 0.02


class WorkerError(Exception):
    """A structured request failure (maps to an HTTP error response)."""

    def __init__(self, code: str, status: int, message: str):
        super().__init__(message)
        self.code = code
        self.status = status
        self.message = message


# -- child-process side ------------------------------------------------


def _compile_batch(sessions: Dict, items: List[Dict],
                   allow_faults: bool) -> List[Dict]:
    """Compile a batch inside a worker, grouped for vectorize_many.

    Adjacent items sharing (target, config) run through one warm
    session's ``vectorize_many`` with per-item counters; each item's
    result document is identical to what a lone compile would produce.
    """
    from repro.ir.parser import parse_function
    from repro.obs.counters import Counters
    from repro.serve.protocol import build_response_body
    from repro.session import VectorizationSession
    from repro.vectorizer.context import VectorizerConfig

    out: List[Optional[Dict]] = [None] * len(items)
    index = 0
    while index < len(items):
        item = items[index]
        fault = item.get("fault")
        if fault and allow_faults:
            if fault == "crash":
                # Simulated worker death mid-request: no reply, no
                # cleanup — exactly what a segfault looks like upstream.
                os._exit(17)
            if fault == "hang":
                import time

                time.sleep(600.0)
            if fault == "error":
                out[index] = {
                    "_error": "compile-error",
                    "message": "injected fault: error",
                }
                index += 1
                continue
        group_key = (item["target"], _config_sig(item["config"]))
        group = [index]
        probe = index + 1
        while probe < len(items):
            nxt = items[probe]
            if nxt.get("fault") and allow_faults:
                break
            if (nxt["target"], _config_sig(nxt["config"])) != group_key:
                break
            group.append(probe)
            probe += 1
        config = VectorizerConfig.from_canonical_dict(
            items[group[0]]["config"]
        )
        session = sessions.get(group_key)
        if session is None:
            session = VectorizationSession(
                target=item["target"],
                beam_width=config.beam_width,
                config=config,
            )
            sessions[group_key] = session
        try:
            functions = [parse_function(items[g]["ir"]) for g in group]
            counters_list = [Counters() for _ in group]
            results = session.vectorize_many(
                functions, counters_list=counters_list
            )
            for g, result, counters in zip(group, results, counters_list):
                out[g] = build_response_body(
                    items[g]["target"], config, items[g]["key"],
                    result, counters,
                )
        except Exception as exc:  # compile failure: structured, per-item
            for g in group:
                if out[g] is None:
                    out[g] = {
                        "_error": "compile-error",
                        "message": f"{type(exc).__name__}: {exc}",
                    }
        index = probe
    return out  # type: ignore[return-value]


def _config_sig(config_dict: Dict) -> str:
    import json

    return json.dumps(config_dict, sort_keys=True)


def _worker_main(conn, allow_faults: bool) -> None:
    """Child-process loop: recv a batch, compile, reply, repeat."""
    sessions: Dict = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg.get("kind")
        if kind == "shutdown":
            break
        if kind == "ping":
            conn.send({"id": msg.get("id"), "ok": True,
                       "pid": os.getpid()})
            continue
        if kind == "batch":
            results = _compile_batch(sessions, msg["items"], allow_faults)
            try:
                conn.send({"id": msg.get("id"), "ok": True,
                           "results": results})
            except (BrokenPipeError, OSError):
                break
    try:
        conn.close()
    except OSError:
        pass


# -- parent side -------------------------------------------------------


class _Pending:
    __slots__ = ("item", "deadline", "future")

    def __init__(self, item: Dict, deadline: Deadline,
                 future: "asyncio.Future"):
        self.item = item
        self.deadline = deadline
        self.future = future


class _WorkerHandle:
    __slots__ = ("index", "process", "conn", "generation", "requests",
                 "crashes")

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.conn = None
        self.generation = 0
        self.requests = 0
        self.crashes = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None


def _mp_context():
    # Fork keeps worker start cheap (~ms, the parent's warm imports are
    # inherited); platforms without fork fall back to their default.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context()


class WorkerPool:
    """Hash-sharded pool of compile worker processes."""

    def __init__(self, workers: int, clock=None, counters=NULL_COUNTERS,
                 allow_faults: bool = False, queue_depth: int = 64,
                 max_batch: int = 8):
        if workers < 1:
            raise ValueError(f"WorkerPool needs >= 1 worker, got {workers}")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.num_workers = workers
        self.clock = clock if clock is not None else MonotonicClock()
        self.counters = counters
        self.allow_faults = allow_faults
        self.queue_depth = queue_depth
        self.max_batch = max_batch
        self._ctx = _mp_context()
        self._handles: List[_WorkerHandle] = []
        self._inboxes: List["asyncio.Queue[_Pending]"] = []
        self._tasks: List["asyncio.Task"] = []
        self._running = False
        self.pending = 0

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        if self._running:
            return
        self._running = True
        for index in range(self.num_workers):
            handle = _WorkerHandle(index)
            self._spawn(handle)
            self._handles.append(handle)
            self._inboxes.append(
                asyncio.Queue(maxsize=self.queue_depth)
            )
        self._tasks = [
            asyncio.ensure_future(self._dispatch_loop(i))
            for i in range(self.num_workers)
        ]

    async def stop(self) -> None:
        self._running = False
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks = []
        for inbox in self._inboxes:
            while not inbox.empty():
                pending = inbox.get_nowait()
                self._resolve_error(
                    pending,
                    WorkerError("shutting-down", 503,
                                "server is draining"),
                )
        for handle in self._handles:
            self._kill(handle, join_timeout=2.0)
        self._handles = []
        self._inboxes = []

    def _spawn(self, handle: _WorkerHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn, self.allow_faults),
            daemon=True,
            name=f"repro-serve-worker-{handle.index}",
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.generation += 1

    def _respawn(self, handle: _WorkerHandle) -> None:
        self._kill(handle, join_timeout=2.0)
        self._spawn(handle)
        self.counters.inc("serve.worker_respawns")

    def _kill(self, handle: _WorkerHandle, join_timeout: float) -> None:
        if handle.process is not None and handle.process.is_alive():
            handle.process.kill()
        if handle.process is not None:
            handle.process.join(timeout=join_timeout)
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.conn = None

    def kill_worker(self, index: int) -> Optional[int]:
        """SIGKILL one worker (fault-injection hook); returns its pid.

        The dispatcher notices the death on its next interaction and
        respawns; in-flight requests on that worker get structured
        ``worker-crashed`` errors.
        """
        handle = self._handles[index]
        pid = handle.pid
        if handle.process is not None and handle.process.is_alive():
            handle.process.kill()
            # Wait for the kernel to reap it so the dispatcher's
            # pre-send liveness check deterministically sees the death.
            handle.process.join(timeout=5.0)
        return pid

    # -- submission -----------------------------------------------------

    def shard_of(self, key: str) -> int:
        return int(key[:8], 16) % self.num_workers

    async def submit(self, item: Dict, deadline: Deadline) -> Dict:
        """Queue one request; returns the worker's response document.

        Raises :class:`WorkerError` for backpressure, timeout, crash,
        or compile failure.
        """
        if not self._running:
            raise WorkerError("shutting-down", 503, "pool is stopped")
        shard = self.shard_of(item["key"])
        future: "asyncio.Future" = (
            asyncio.get_running_loop().create_future()
        )
        pending = _Pending(item, deadline, future)
        try:
            self._inboxes[shard].put_nowait(pending)
        except asyncio.QueueFull:
            self.counters.inc("serve.rejected")
            raise WorkerError(
                "overloaded", 429,
                f"worker {shard} queue is full "
                f"({self.queue_depth} deep); retry later",
            ) from None
        self.pending += 1
        try:
            result = await future
        finally:
            self.pending -= 1
        return result

    # -- dispatch -------------------------------------------------------

    async def _dispatch_loop(self, index: int) -> None:
        inbox = self._inboxes[index]
        handle = self._handles[index]
        while True:
            pending = await inbox.get()
            if pending.future.cancelled():
                continue
            if pending.deadline.expired():
                self._resolve_timeout([pending])
                continue
            batch = [pending]
            while len(batch) < self.max_batch:
                try:
                    extra = inbox.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra.future.cancelled():
                    continue
                if extra.deadline.expired():
                    self._resolve_timeout([extra])
                    continue
                batch.append(extra)
            await self._dispatch_batch(handle, batch)

    async def _dispatch_batch(self, handle: _WorkerHandle,
                              batch: List[_Pending]) -> None:
        self.counters.inc("serve.batches")
        if len(batch) > 1:
            self.counters.inc("serve.batched_requests", len(batch))
        message = {
            "id": handle.generation,
            "kind": "batch",
            "items": [p.item for p in batch],
        }
        if not handle.alive:
            # Found dead between requests (external kill): respawn
            # first so the batch runs on a fresh worker.
            self.counters.inc("serve.worker_crashes")
            handle.crashes += 1
            self._respawn(handle)
        try:
            handle.conn.send(message)
        except (BrokenPipeError, OSError):
            self.counters.inc("serve.worker_crashes")
            handle.crashes += 1
            self._respawn(handle)
            try:
                handle.conn.send(message)
            except (BrokenPipeError, OSError):
                self._resolve_crash(batch, handle)
                return
        deadline = Deadline.earliest([p.deadline for p in batch])
        try:
            reply = await self._recv(handle, deadline)
        except _RecvTimeout:
            # The only way to cancel CPU-bound work in a worker is to
            # kill it; the slot is respawned immediately, so nothing
            # leaks — the affected requests all report timeout.
            self.counters.inc("serve.timeouts", len(batch))
            handle.crashes += 0  # timeout is not a crash
            self._respawn(handle)
            for pending in batch:
                self._resolve_error(
                    pending,
                    WorkerError(
                        "timeout", 504,
                        f"request exceeded its "
                        f"{pending.deadline.timeout_s}s deadline",
                    ),
                )
            return
        if reply.get("_eof"):
            self.counters.inc("serve.worker_crashes")
            handle.crashes += 1
            self._respawn(handle)
            self._resolve_crash(batch, handle)
            return
        results = reply.get("results", [])
        for pending, result in zip(batch, results):
            handle.requests += 1
            if isinstance(result, dict) and "_error" in result:
                self._resolve_error(
                    pending,
                    WorkerError(result["_error"], 500,
                                result.get("message", "compile failed")),
                )
            else:
                self.counters.inc("serve.compiles")
                if not pending.future.done():
                    pending.future.set_result(result)

    async def _recv(self, handle: _WorkerHandle,
                    deadline: Deadline) -> Dict:
        loop = asyncio.get_running_loop()
        conn = handle.conn
        fut = loop.run_in_executor(None, _recv_blocking, conn)
        while True:
            try:
                return await asyncio.wait_for(
                    asyncio.shield(fut), timeout=POLL_SLICE_S
                )
            except asyncio.TimeoutError:
                if deadline.expired():
                    raise _RecvTimeout()

    # -- resolution helpers ---------------------------------------------

    def _resolve_timeout(self, batch: List[_Pending]) -> None:
        self.counters.inc("serve.timeouts", len(batch))
        for pending in batch:
            self._resolve_error(
                pending,
                WorkerError(
                    "timeout", 504,
                    f"request exceeded its "
                    f"{pending.deadline.timeout_s}s deadline",
                ),
            )

    def _resolve_crash(self, batch: List[_Pending],
                       handle: _WorkerHandle) -> None:
        for pending in batch:
            self._resolve_error(
                pending,
                WorkerError(
                    "worker-crashed", 502,
                    f"worker {handle.index} died mid-request; "
                    f"a replacement was spawned",
                ),
            )

    @staticmethod
    def _resolve_error(pending: _Pending, error: WorkerError) -> None:
        if not pending.future.done():
            pending.future.set_exception(error)

    # -- introspection --------------------------------------------------

    def worker_stats(self) -> List[Dict]:
        return [
            {
                "index": handle.index,
                "pid": handle.pid,
                "alive": handle.alive,
                "generation": handle.generation,
                "requests": handle.requests,
                "crashes": handle.crashes,
            }
            for handle in self._handles
        ]


class _RecvTimeout(Exception):
    pass


def _recv_blocking(conn) -> Dict:
    """Executor-thread recv: every failure becomes an ``_eof`` marker
    (a worker death and a closed pipe look identical upstream)."""
    try:
        return conn.recv()
    except Exception:
        return {"_eof": True}

