"""Observability for the vectorization pipeline (tracing, counters,
benchmarking).

Zero-dependency and off by default: the pipeline threads a
:class:`Tracer` and a :class:`Counters` registry through every stage
(canonicalize → match table → seeds → beam search → codegen → costing),
but unless a caller passes real instances to ``vectorize()``, the
:data:`NULL_TRACER` / :data:`NULL_COUNTERS` singletons are used and the
instrumentation reduces to one no-op call per site.

Quick start::

    from repro.obs import Counters, Tracer

    tracer, counters = Tracer(), Counters()
    result = vectorize(fn, target="avx2", tracer=tracer,
                       counters=counters)
    print(tracer.phase_times())        # {"select_packs": 0.012, ...}
    print(counters.as_dict())          # {"beam.iterations": 9, ...}
    json.dump(tracer.to_trace_events(), open("trace.json", "w"))

The ``repro bench`` CLI subcommand (see :mod:`repro.obs.bench`) runs the
bundled kernel × target matrix with observability on and writes the
``BENCH_vegen.json`` perf trajectory.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "bench": ("BENCH_SCHEMA", "DEFAULT_BEAM_WIDTH", "DEFAULT_BENCH_PATH",
              "DEFAULT_TARGETS", "bench_one", "compare_bench",
              "load_bench", "render_bench_summary", "run_bench",
              "validate_bench", "write_bench"),
    "counters": ("COUNTER_NAMES", "Counters", "NULL_COUNTERS",
                 "NullCounters"),
    "trace": ("NULL_TRACER", "NullTracer", "SPAN_NAMES", "Span", "Tracer"),
})
