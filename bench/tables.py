"""Frozen inputs of the five benchmark workloads.

Everything here is data fixed in the benchmark, not derived at run time:
regenerating ``BENCH_vegen.json`` or changing the program never moves a
workload.  The seed given to ``bench/run.py`` changes only the order of
operations, the random buffers and samples of the correctness checks,
and how each serve request is written (mini-C or IR, where a malformed
source is cut).  It never changes how much work a run does or the serve
schedule, so runs with different seeds measure the same thing and their
spread is noise, not input variation.

Cells are ``(kernel, target)`` pairs over the bundled kernels
(``repro.kernels.all_kernels()`` names).
"""

from typing import Dict, NamedTuple, Tuple

TARGETS = ("sse4", "avx2", "avx512_vnni", "neon128")

#: Beam width of every compile (the bench default; ``repro serve`` is
#: started with it too).
BEAM_WIDTH = 8

#: Node budget of the exact pass in ``prove`` (the bench's gap probe).
EXACT_NODE_BUDGET = 50_000

#: Length of one round of each closed-loop workload at the reference
#: speed (``speed.py``).  ``--seconds S`` runs ``max(1, round(S /
#: nominal))`` rounds, so the work done is fixed by ``S`` and never by
#: how fast the code is.
NOMINAL_ROUND_S = {"search_heavy": 13.0, "cli_light": 16.0, "prove": 12.0}

# -- search_heavy ---------------------------------------------------------

#: select_packs is >= 95% of each compile in these cells, and the 16
#: cells of these kernels are 72% of all compile time in the 132-cell
#: matrix.  Each kernel runs on two of the four targets (kernel i on
#: targets i-1 and i, mod 4), so each target appears twice and the
#: slowest cell, dsp_sbc/neon128, is in; all 16 would take 24 s a run.
HEAVY_KERNELS = ("dsp_sbc", "dsp_idct8", "tvm_dot", "dsp_idct4")
HEAVY_CELLS = tuple((k, TARGETS[(i + j) % 4])
                    for i, k in enumerate(HEAVY_KERNELS) for j in (-1, 0))

# -- the 116 light cells -------------------------------------------------

LIGHT_KERNELS = (
    "complex_mul", "dsp_chroma", "dsp_fft4", "dsp_fft8",
    "isel_abs_i16", "isel_abs_i32", "isel_abs_i8", "isel_abs_pd",
    "isel_abs_ps", "isel_hadd_i16", "isel_hadd_i32", "isel_hadd_pd",
    "isel_hadd_ps", "isel_hsub_i16", "isel_hsub_i32", "isel_hsub_pd",
    "isel_hsub_ps", "isel_max_pd", "isel_max_ps", "isel_min_pd",
    "isel_min_ps", "isel_mul_addsub_pd", "isel_mul_addsub_ps",
    "isel_pmaddubs", "isel_pmaddwd", "opencv_int16x16", "opencv_int32x8",
    "opencv_int8x32", "opencv_uint8x32",
)
LIGHT_CELLS = tuple((k, t) for k in LIGHT_KERNELS for t in TARGETS)

#: The light cells whose exact pass proved optimality within 50k nodes in
#: the trajectory committed with this benchmark (74 cells; re-measured in
#: one process at 116/116 agreement).
PROVED_CELLS = tuple(
    [(k, t) for k in ("complex_mul", "isel_abs_i32", "isel_abs_pd",
                      "isel_abs_ps", "isel_hadd_i16", "isel_hadd_i32",
                      "isel_hadd_pd", "isel_hadd_ps", "isel_hsub_pd",
                      "isel_max_pd", "isel_max_ps", "isel_min_pd",
                      "isel_min_ps", "isel_mul_addsub_pd")
     for t in TARGETS]
    + [(k, t) for k in ("isel_hsub_i16", "isel_hsub_i32", "isel_hsub_ps",
                        "isel_mul_addsub_ps", "isel_pmaddubs",
                        "isel_pmaddwd")
       for t in ("sse4", "avx2", "avx512_vnni")]
)

#: The other 42 light cells: the exact pass exhausts its 50k-node budget.
EXHAUSTED_CELLS = tuple(c for c in LIGHT_CELLS if c not in PROVED_CELLS)

# -- cli_light ------------------------------------------------------------

#: 58 cold ``python -m repro vectorize`` runs: every light kernel on two
#: targets (kernel i on targets i and i+2, mod 4), so each target appears
#: 14 or 15 times.  All 116 light cells would take ~35 s per run.
CLI_CELLS = tuple(
    (k, TARGETS[(i + j) % 4])
    for i, k in enumerate(LIGHT_KERNELS) for j in (0, 2)
)

# -- prove ----------------------------------------------------------------

#: Four cells from each stratum, proved ones first.  The proved ones mix
#: one of the deepest proofs (isel_abs_ps, 33k nodes) with shallow ones;
#: the exhausted ones span three kernel families and take 1-2.5 s each
#: to exhaust the budget.  The 10-43 s heavy cells are left out to fit
#: the time cap.
PROVE_CELLS = (
    ("isel_abs_ps", "avx2"), ("complex_mul", "avx2"),
    ("isel_mul_addsub_pd", "neon128"), ("isel_pmaddubs", "sse4"),
    ("dsp_fft4", "sse4"), ("isel_abs_i16", "avx2"),
    ("opencv_int32x8", "neon128"), ("dsp_chroma", "avx512_vnni"),
)

# -- serve_hits and serve_misses --------------------------------------------
#
# No one has recorded which requests ``repro serve`` gets in real use, so
# the benchmark does not guess a mix.  Two workloads bracket every mix:
# ``serve_hits`` is nearly all cache hits (the read path: HTTP, JSON,
# parse, canonicalize, cache lookup) and ``serve_misses`` nearly all
# misses (the write path: worker compile and cache put).  A real mix lies
# between them, and a change that speeds one path at the other's expense
# shows on one of the two.  Both send 2% truncated sources, which must get
# a structured 400, and half of each kind in mini-C, half in IR.

#: Keys compiled during set-up; every hit asks for one of them.  Cheap
#: kernels keep set-up short; opencv_int32x8 adds a larger source to the
#: parse path.
WARM_KERNELS = ("isel_pmaddwd", "isel_hadd_i16", "isel_abs_i32",
                "isel_max_ps", "complex_mul", "opencv_int32x8")
WARM_CELLS = tuple((k, t) for k in WARM_KERNELS for t in TARGETS)

#: The cells misses compile: 12 light cells of six kernels over all four
#: targets, each within 12% of the light cells' median compile time.
#: Cells of widely different compile times made the median request
#: depend on which few requests the host happened to delay: it moved by
#: 9-10% between runs, with cells spread over 0.6x to 1.8x the median or
#: bunched in two groups.  A miss sends one of them with its function
#: renamed to a name the server has never seen, so it is a new key;
#: every run compiles each cell equally often.
MISS_CELLS = (
    ("isel_hadd_ps", "neon128"), ("isel_hadd_i32", "neon128"),
    ("isel_hadd_ps", "sse4"), ("isel_abs_i32", "avx512_vnni"),
    ("isel_abs_ps", "sse4"), ("isel_hadd_i32", "avx512_vnni"),
    ("isel_hadd_ps", "avx2"), ("isel_abs_ps", "avx512_vnni"),
    ("isel_mul_addsub_ps", "sse4"), ("isel_abs_ps", "avx2"),
    ("isel_hadd_i32", "sse4"), ("isel_hsub_ps", "neon128"),
)


class ServeLoad(NamedTuple):
    warm: Tuple[Tuple[str, str], ...]  # keys filled in set-up, hits' keys
    mix: Dict[str, float]  # share of requests per kind: hit, miss, bad
    rate: float  # open-loop arrivals per second; latency is taken here
    burst: int  # requests of the closed-loop burst that measures capacity


#: The open loop lasts this share of ``--seconds``; the capacity burst
#: and the checks take most of the rest.
OPEN_SHARE = 0.7

#: Seed of the serve schedule: the open loop's Poisson arrival times, and
#: which request is a hit, a miss or malformed, with its hit key or miss
#: cell.  It is fixed, like the cell sets, because the schedule sets how
#: long requests queue: a queueing model with the measured compile times
#: has the tail of ~200 misses move by 13-15% between seeds when the
#: schedule is drawn anew for each, and by 1-2% when it is not.
#: ``--seed`` still writes each request (mini-C or IR, where a malformed
#: source is cut).
TRACE_SEED = 20211

#: The open-loop rates are those of a 150 req/s mixed stream with 10%
#: misses, split by path: the read path sees about 150 req/s, the worker
#: about 12 compiles/s.  Queueing grows faster than linearly as the host
#: slows, which the speed correction (``speed.py``) cannot undo: at
#: 300 req/s of hits the p90 moved by 16-17% between runs, against 4-5%
#: at 150; at 20 misses/s by 12%, against 8% at 12.  The hits burst
#: lasts about 7 s: over 3000 requests (2.5 s) its throughput moved by
#: 5-13% between runs, over 9000 by 4-6%.
SERVE = {
    "serve_hits": ServeLoad(WARM_CELLS, {"hit": 0.98, "miss": 0.0,
                                         "bad": 0.02},
                            rate=150, burst=9000),
    # Hits ask for the miss cells under their own names, compiled in
    # set-up, so no miss pays a cell's first compile in the worker.
    "serve_misses": ServeLoad(MISS_CELLS, {"hit": 0.08, "miss": 0.90,
                                           "bad": 0.02},
                              rate=12, burst=512),
}

#: Keep-alive connections of the load generator (capped at nproc).
CONNECTIONS = 2

# -- smoke sizes (``--smoke``: seconds, not minutes) -----------------------

SMOKE = {
    "search_heavy": (("tvm_dot", "avx512_vnni"),),
    "cli_light": (("isel_pmaddwd", "avx2"), ("complex_mul", "neon128")),
    "prove": (("isel_pmaddubs", "sse4"), ("isel_hsub_ps", "neon128")),
}
SMOKE_SERVE = {
    "serve_hits": ServeLoad(WARM_CELLS[:2], SERVE["serve_hits"].mix,
                            rate=50, burst=50),
    "serve_misses": ServeLoad(WARM_CELLS[:2], SERVE["serve_misses"].mix,
                              rate=10, burst=8),
}
