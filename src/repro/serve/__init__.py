"""Vectorization-as-a-service: the asyncio compile server.

Layers (each its own module, mapped to the paper's Figure-3 split in
DESIGN.md):

* :mod:`repro.serve.protocol` — request validation, IR canonicalization,
  deterministic response bodies;
* :mod:`repro.serve.cache` — content-addressed two-tier result cache
  keyed by SHA-256(canonical IR, target, config, artifact hash);
* :mod:`repro.serve.workers` — hash-sharded multi-process worker pool
  with warm sessions, batching, deadlines, and crash recovery (the
  only execution path: every compile runs in a worker process);
* :mod:`repro.serve.server` — the HTTP front end (``/compile``,
  ``/metrics``, ``/healthz``) with backpressure;
* :mod:`repro.serve.clock` — injectable clocks/deadlines (fake-clock
  timeout tests);
* :mod:`repro.serve.fixture` — the in-process test harness and fault
  injection surface.

Load is measured outside the package: ``bench/``'s ``serve_hits`` and
``serve_misses`` workloads drive a ``repro serve`` process.
"""

from repro.serve.cache import ResultCache, cache_key, current_artifact_hash
from repro.serve.clock import Deadline, FakeClock, MonotonicClock
from repro.serve.fixture import ServeClient, ServerFixture
from repro.serve.protocol import (
    RESPONSE_SCHEMA,
    CompileRequest,
    RequestError,
    build_response_body,
    canonicalize_source,
    encode_body,
    parse_compile_request,
)
from repro.serve.server import CompileServer, ServeConfig, run_server
from repro.serve.workers import WorkerError, WorkerPool

__all__ = [
    "CompileRequest",
    "CompileServer",
    "Deadline",
    "FakeClock",
    "MonotonicClock",
    "RESPONSE_SCHEMA",
    "RequestError",
    "ResultCache",
    "ServeClient",
    "ServeConfig",
    "ServerFixture",
    "WorkerError",
    "WorkerPool",
    "build_response_body",
    "cache_key",
    "canonicalize_source",
    "current_artifact_hash",
    "encode_body",
    "parse_compile_request",
    "run_server",
]
