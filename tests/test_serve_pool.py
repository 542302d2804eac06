"""Worker-pool and clock/deadline tests (no HTTP involved).

Covers the deterministic fake-clock timeout machinery, hash sharding,
request batching through ``vectorize_many``, backpressure, and the
concurrency/race satellite: N concurrent submitters × M workers must
produce results identical to serial in-process compilation.
"""

import asyncio
import threading

import pytest

from repro.frontend import compile_c
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.obs.counters import Counters
from repro.serve.clock import Deadline, FakeClock, MonotonicClock
from repro.serve.protocol import build_response_body
from repro.serve.workers import WorkerError, WorkerPool
from repro.session import VectorizationSession
from repro.vectorizer.context import VectorizerConfig

_SOURCES = {
    "add2": "void add2(int* a, int* b) "
            "{ a[0] = b[0] + b[1]; a[1] = b[2] + b[3]; }",
    "mul2": "void mul2(int* a, int* b) "
            "{ a[0] = b[0] * b[1]; a[1] = b[2] * b[3]; }",
    "sub4": "void sub4(int* a, int* b) "
            "{ a[0] = b[0] - b[4]; a[1] = b[1] - b[5]; "
            "  a[2] = b[2] - b[6]; a[3] = b[3] - b[7]; }",
}


def _item(name: str, target: str = "avx2", key_salt: str = "",
          fault=None) -> dict:
    import hashlib

    ir = print_function(compile_c(_SOURCES[name])[0])
    config = VectorizerConfig(beam_width=8)
    key = hashlib.sha256(
        (ir + target + key_salt).encode()).hexdigest()
    return {"key": key, "ir": ir, "target": target,
            "config": config.canonical_dict(), "fault": fault}


def _expected_body(item: dict) -> dict:
    """What a serial in-process compile of the same item produces."""
    config = VectorizerConfig.from_canonical_dict(item["config"])
    session = VectorizationSession(
        target=item["target"], beam_width=config.beam_width,
        config=config,
    )
    counters = Counters()
    result = session.vectorize(parse_function(item["ir"]),
                               counters=counters)
    return build_response_body(item["target"], config, item["key"],
                               result, counters)


def _run(coro):
    return asyncio.run(coro)


# -- clocks and deadlines ----------------------------------------------


def test_fake_clock_advances_only_explicitly():
    clock = FakeClock()
    assert clock.now() == 0.0
    clock.advance(2.5)
    assert clock.now() == 2.5
    with pytest.raises(ValueError):
        clock.advance(-1)


def test_deadline_expiry_is_clock_driven():
    clock = FakeClock()
    deadline = Deadline(clock, 10.0)
    assert not deadline.expired()
    assert deadline.remaining() == 10.0
    clock.advance(9.999)
    assert not deadline.expired()
    clock.advance(0.001)
    assert deadline.expired()
    assert deadline.remaining() == 0.0


def test_deadline_none_never_expires():
    clock = FakeClock()
    deadline = Deadline(clock, None)
    clock.advance(1e9)
    assert not deadline.expired()
    assert deadline.remaining() is None


def test_deadline_rejects_nonpositive_timeout():
    with pytest.raises(ValueError):
        Deadline(FakeClock(), 0)
    with pytest.raises(ValueError):
        Deadline(FakeClock(), -3)


def test_deadline_earliest_picks_the_tightest():
    clock = FakeClock()
    loose = Deadline(clock, 100.0)
    tight = Deadline(clock, 1.0)
    unbounded = Deadline(clock, None)
    assert Deadline.earliest([loose, tight, unbounded]) is tight
    assert Deadline.earliest([unbounded]) is unbounded
    with pytest.raises(ValueError):
        Deadline.earliest([])


def test_monotonic_clock_moves_forward():
    clock = MonotonicClock()
    first = clock.now()
    assert clock.now() >= first


# -- pool basics -------------------------------------------------------


def test_pool_rejects_zero_workers():
    with pytest.raises(ValueError, match=">= 1 worker, got 0"):
        WorkerPool(0)


def test_shard_is_deterministic_and_in_range():
    async def main():
        pool = WorkerPool(3)
        try:
            await pool.start()
            import hashlib
            keys = [hashlib.sha256(str(n).encode()).hexdigest()
                    for n in range(50)]
            shards = [pool.shard_of(k) for k in keys]
            assert shards == [pool.shard_of(k) for k in keys]
            assert set(shards) <= {0, 1, 2}
            assert len(set(shards)) > 1  # actually spreads
        finally:
            await pool.stop()
    _run(main())


def test_pool_roundtrip_matches_serial_compile():
    async def main():
        pool = WorkerPool(1)
        try:
            await pool.start()
            item = _item("add2")
            body = await pool.submit(
                item, Deadline(pool.clock, 30.0))
            assert body == _expected_body(item)
        finally:
            await pool.stop()
    _run(main())


def test_concurrent_clients_match_serial():
    """The race satellite: many async submitters × 2 workers, mixed
    targets, repeated items — every response identical to a serial
    compile of the same request."""
    items = [
        _item("add2", "avx2"),
        _item("mul2", "avx2"),
        _item("sub4", "sse4"),
        _item("add2", "sse4", key_salt="s"),
        _item("mul2", "avx512_vnni", key_salt="v"),
    ]
    expected = [_expected_body(item) for item in items]
    rounds = 3

    async def main():
        counters = Counters()
        pool = WorkerPool(2, counters=counters, max_batch=4)
        try:
            await pool.start()
            tasks = [
                pool.submit(items[i % len(items)],
                            Deadline(pool.clock, 60.0))
                for i in range(rounds * len(items))
            ]
            bodies = await asyncio.gather(*tasks)
            for i, body in enumerate(bodies):
                assert body == expected[i % len(items)], (
                    f"request {i} diverged from serial compilation"
                )
            assert counters["serve.compiles"] == rounds * len(items)
        finally:
            await pool.stop()
    _run(main())


def test_batching_rides_vectorize_many():
    """All-at-once submissions to one worker coalesce into fewer IPC
    batches, and batched results still match serial compilation."""
    item = _item("add2")
    other = _item("mul2")
    expected = {item["key"]: _expected_body(item),
                other["key"]: _expected_body(other)}

    async def main():
        counters = Counters()
        pool = WorkerPool(1, counters=counters, max_batch=8)
        try:
            await pool.start()
            picks = [item, other, item, other, item, other]
            bodies = await asyncio.gather(*[
                pool.submit(p, Deadline(pool.clock, 60.0))
                for p in picks
            ])
            for pick, body in zip(picks, bodies):
                assert body == expected[pick["key"]]
            assert counters["serve.batches"] < len(picks)
            assert counters["serve.batched_requests"] >= 2
        finally:
            await pool.stop()
    _run(main())


def test_backpressure_raises_overloaded():
    async def main():
        counters = Counters()
        pool = WorkerPool(1, counters=counters, queue_depth=2,
                          allow_faults=True, max_batch=1)
        try:
            await pool.start()
            # Occupy the worker forever, then overfill its inbox.
            hang = asyncio.ensure_future(pool.submit(
                _item("add2", fault="hang"),
                Deadline(pool.clock, None)))
            await asyncio.sleep(0.2)  # dispatcher picks up the hang
            fillers = [
                asyncio.ensure_future(pool.submit(
                    _item("add2", key_salt=str(n)),
                    Deadline(pool.clock, None)))
                for n in range(10)
            ]
            await asyncio.sleep(0.3)
            failures = [f.exception() for f in fillers if f.done()]
            assert failures, "expected the inbox to overflow"
            assert all(isinstance(exc, WorkerError)
                       and exc.code == "overloaded"
                       and exc.status == 429
                       for exc in failures)
            assert counters["serve.rejected"] >= len(failures)
            hang.cancel()
            for filler in fillers:
                if not filler.done():
                    filler.cancel()
            await asyncio.gather(hang, *fillers,
                                 return_exceptions=True)
        finally:
            await pool.stop()
    _run(main())


def test_fake_clock_timeout_kills_and_respawns_without_leak():
    """Deterministic timeout: the hang is cancelled because the *fake*
    clock advanced, the worker is SIGKILLed (not leaked), a fresh
    worker replaces it, and the next request succeeds."""
    clock = FakeClock()

    async def main():
        counters = Counters()
        pool = WorkerPool(1, clock=clock, counters=counters,
                          allow_faults=True)
        try:
            await pool.start()
            first_pid = pool.worker_stats()[0]["pid"]
            hang_task = asyncio.ensure_future(pool.submit(
                _item("add2", fault="hang"), Deadline(clock, 5.0)))
            await asyncio.sleep(0.2)
            assert not hang_task.done()  # fake time hasn't moved
            clock.advance(5.1)
            with pytest.raises(WorkerError) as exc_info:
                await asyncio.wait_for(hang_task, timeout=10.0)
            assert exc_info.value.code == "timeout"
            assert exc_info.value.status == 504
            assert counters["serve.timeouts"] == 1
            assert counters["serve.worker_respawns"] == 1
            # The slot was respawned: new pid, still exactly one worker.
            stats = pool.worker_stats()
            assert len(stats) == 1
            assert stats[0]["alive"]
            assert stats[0]["pid"] != first_pid
            item = _item("mul2")
            body = await pool.submit(item, Deadline(clock, None))
            assert body == _expected_body(item)
        finally:
            await pool.stop()
    _run(main())


def test_crash_mid_request_structured_error_and_respawn():
    async def main():
        counters = Counters()
        pool = WorkerPool(1, counters=counters, allow_faults=True)
        try:
            await pool.start()
            first_pid = pool.worker_stats()[0]["pid"]
            with pytest.raises(WorkerError) as exc_info:
                await pool.submit(_item("add2", fault="crash"),
                                  Deadline(pool.clock, 30.0))
            assert exc_info.value.code == "worker-crashed"
            assert exc_info.value.status == 502
            assert counters["serve.worker_crashes"] == 1
            assert counters["serve.worker_respawns"] == 1
            stats = pool.worker_stats()[0]
            assert stats["alive"] and stats["pid"] != first_pid
            item = _item("sub4")
            body = await pool.submit(item, Deadline(pool.clock, 30.0))
            assert body == _expected_body(item)
        finally:
            await pool.stop()
    _run(main())


def test_injected_error_fault_is_per_request_not_fatal():
    async def main():
        pool = WorkerPool(1, allow_faults=True)
        try:
            await pool.start()
            with pytest.raises(WorkerError) as exc_info:
                await pool.submit(_item("add2", fault="error"),
                                  Deadline(pool.clock, 30.0))
            assert exc_info.value.code == "compile-error"
            # Same worker (no crash, no respawn) keeps serving.
            assert pool.worker_stats()[0]["generation"] == 1
            item = _item("add2")
            assert await pool.submit(
                item, Deadline(pool.clock, 30.0)) == _expected_body(item)
        finally:
            await pool.stop()
    _run(main())


def test_submit_after_stop_is_structured():
    async def main():
        pool = WorkerPool(1)
        await pool.start()
        await pool.stop()
        with pytest.raises(WorkerError) as exc_info:
            await pool.submit(_item("add2"),
                              Deadline(pool.clock, 1.0))
        assert exc_info.value.code == "shutting-down"
    _run(main())


# -- registry locking under concurrency --------------------------------


def test_registry_races_under_plain_threads():
    """The registry's double-checked locking: raw threads racing
    get_target on a cold registry all see one consistent target
    object."""
    from repro.target import clear_caches, get_target

    clear_caches()
    results = []
    errors = []

    def hit():
        try:
            results.append(get_target("avx2"))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hit) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len({id(target) for target in results}) == 1
