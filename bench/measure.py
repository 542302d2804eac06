"""Measurement helpers shared by the workloads: statistics, the output
checker, the benchmark's own layer spans, GC and memory probes.

Nothing here is passed into the program: spans come from the
benchmark's own :class:`repro.obs.Tracer` around calls it makes from the
outside, pass timing from wrapper passes handed to
``VectorizationSession(pipeline=...)``, and program counters from the
public ``counters=`` argument.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import resource
import statistics
import time
from typing import Dict, List, Sequence

# -- statistics -------------------------------------------------------------

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _beyond(n: int) -> int:
    """Samples left beyond the tail: ten, a quarter of a run too short
    for ten to leave the tail above the median, and never less than 10%."""
    return max(min(TAIL_BEYOND, n // 4), n // 10)


def tail(values: Sequence[float]) -> float:
    """The highest percentile with at least ten samples beyond it (the
    11th-largest sample), but no higher than p90.  Runs of fewer than 44
    samples keep a quarter of them beyond it instead, so the tail of 8
    ops is not one op's time, which a single slow moment of the host
    sets.  Runs of over 110 keep 10%: beyond p90, the serve tails are set
    by which burst of requests a 30-50 ms stall (a collection in the
    server or its worker, or the host) happens to hit; their p99 moved by
    12-13% between runs of one frozen schedule, against 5-7% at p90."""
    if not values:
        return 0.0
    return sorted(values)[-(_beyond(len(values)) + 1)]


def tail_label(n: int) -> str:
    if _beyond(n) == 0:
        return "max"
    return f"p{100.0 * (n - _beyond(n) - 1) / (n - 1):.1f}"


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def digest(texts: Sequence[str]) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from /proc."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- output correctness -------------------------------------------------------

#: Buffer length per pointer argument; covers every bundled kernel.
BUFFER_LEN = 64
CHECK_ROUNDS = 3


def _random_args(function, rng: random.Random) -> Dict[str, object]:
    from repro.ir.interp import Buffer
    from repro.ir.types import IntType, PointerType

    args: Dict[str, object] = {}
    for arg in function.args:
        if isinstance(arg.type, PointerType):
            elem = arg.type.pointee
            if isinstance(elem, IntType):
                data = [rng.getrandbits(elem.width) for _ in range(BUFFER_LEN)]
            else:
                data = [rng.uniform(-100.0, 100.0) for _ in range(BUFFER_LEN)]
            args[arg.name] = Buffer(elem, data)
        elif isinstance(arg.type, IntType):
            args[arg.name] = rng.getrandbits(arg.type.width)
        else:
            args[arg.name] = rng.uniform(-100.0, 100.0)
    return args


def program_matches(original, program, rng: random.Random) -> bool:
    """Run the emitted vector program and the reference interpreter on
    the original (uncanonicalized) function over seeded random buffers;
    True when every buffer ends equal in every round."""
    from repro.ir.interp import Buffer, run_function
    from repro.machine.exec import run_program

    for _ in range(CHECK_ROUNDS):
        args = _random_args(original, rng)
        scalar = {n: v.copy() if isinstance(v, Buffer) else v
                  for n, v in args.items()}
        vector = {n: v.copy() if isinstance(v, Buffer) else v
                  for n, v in args.items()}
        try:
            run_function(original, scalar)
            run_program(program, vector)
        except Exception:  # an undefined operation is a wrong program
            return False
        if any(isinstance(v, Buffer) and v != vector[n]
               for n, v in scalar.items()):
            return False
    return True


# -- the benchmark's own spans ----------------------------------------------

#: Default-pipeline pass name -> layer span name.
PASS_LAYERS = {
    "canonicalize": "patterns.canonicalize",
    "select-packs": "vectorizer.select_packs",
    "scalar-cost": "machine.scalar_cost",
    "codegen": "vectorizer.codegen",
}
CONTEXT_LAYER = "vectorizer.context"
TRANSVAL_LAYER = "analysis.transval"
GC_LAYER = "python.gc"  # the full collection that ends each timed op
OP_SPAN = "op"


class LayerTrace:
    """Spans and counters one traced run records around program calls."""

    def __init__(self):
        from repro.obs import Counters, Tracer

        self.tracer = Tracer()
        self.counters = Counters()
        self.events: List[Dict] = []  # hand-built events (serve requests)

    def pipeline(self):
        """The default pass list, each pass wrapped in a timing span."""
        from repro.passes import PassPipeline, default_passes

        return PassPipeline([_timed_pass(p, self.tracer)
                             for p in default_passes()])

    def layer_ms(self) -> Dict[str, float]:
        """Total self time per span name, in ms."""
        totals: Dict[str, float] = {}
        for root in self.tracer.roots:
            for span in root.walk():
                totals[span.name] = (totals.get(span.name, 0.0)
                                     + span.self_time_s * 1e3)
        return totals

    def count(self, name: str) -> int:
        return sum(1 for root in self.tracer.roots for span in root.walk()
                   if span.name == name)

    def trace_events(self) -> List[Dict]:
        return self.tracer.to_trace_events() + self.events


def _timed_pass(inner, tracer):
    from repro.passes import Pass

    class TimedPass(Pass):
        name = inner.name
        span_name = None
        requires = ()
        preserves = inner.preserves

        def run(self, state) -> None:
            for key in inner.requires:
                if key == "context" and not state.analyses.cached(key):
                    with tracer.span(CONTEXT_LAYER):
                        state.analyses.ensure(key)
                else:
                    state.analyses.ensure(key)
            with tracer.span(PASS_LAYERS.get(inner.name, inner.name)):
                inner.run(state)

    return TimedPass()


class GcMonitor:
    """Collector pauses observed through ``gc.callbacks``."""

    def __init__(self):
        self.pause_s = 0.0
        self.gen2 = 0
        self._start = None

    def _callback(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.pause_s += time.perf_counter() - self._start
            self._start = None
            if info.get("generation") == 2:
                self.gen2 += 1

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)


# -- serve layers measured in process ---------------------------------------

PROTOCOL_REPEATS = 5


def protocol_timings(payloads: Sequence[Dict], bodies: Sequence[Dict]
                     ) -> Dict[str, float]:
    """Median in-process cost, in microseconds, of the serve read path
    on these payloads: parse (mini-C and IR), cache key, cache get, and
    response encoding."""
    from repro.serve.cache import ResultCache, cache_key
    from repro.serve.protocol import encode_body, parse_compile_request
    from repro.vectorizer.context import VectorizerConfig

    default = VectorizerConfig(beam_width=8)
    samples: Dict[str, List[float]] = {
        "serve.protocol.parse_c_us": [], "serve.protocol.parse_ir_us": [],
        "serve.cache.key_us": [], "serve.cache.get_us": [],
        "serve.protocol.encode_us": [],
    }
    cache = ResultCache()

    def timed(name, fn, *args, **kwargs):
        result = None
        for _ in range(PROTOCOL_REPEATS):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            samples[name].append((time.perf_counter() - start) * 1e6)
        return result

    for payload in payloads:
        name = ("serve.protocol.parse_c_us" if payload["lang"] == "c"
                else "serve.protocol.parse_ir_us")
        request = timed(name, parse_compile_request, payload,
                        default_config=default)
        key = timed("serve.cache.key_us", cache_key, request.canonical_ir,
                    request.target, request.config, "bench")
        cache.put(key, b"{}")
        timed("serve.cache.get_us", cache.get, key)
    for body in bodies:
        timed("serve.protocol.encode_us", encode_body, body)
    return {name: median(values) for name, values in samples.items()}
