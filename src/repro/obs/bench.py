"""The ``repro bench`` harness: the repository's perf trajectory.

Runs the bundled kernel × target matrix through ``vectorize()`` with
tracing and counters enabled, and records for each cell

* per-phase wall times (from the span tree, flattened by name),
* pipeline counters (beam work, producer-cache behaviour, codegen
  data movement),
* model costs: scalar cost, vector cost, and their ratio
  (``cost_ratio < 1`` means the vectorizer won).

The result is written as ``BENCH_vegen.json`` at the repo root so every
future PR has a baseline to compare against: cost ratios are
deterministic (pure model arithmetic) and treated as a hard contract by
:func:`compare_bench`; wall times are machine-dependent and only ever
reported informationally.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Schema identifier; bump on any breaking change to the document shape.
#: v2 added the per-cell ``optimality_gap`` column (beam cost minus the
#: exhaustive branch-and-bound cost when the bounded exact pass ran to
#: completion, explicit ``null`` when its node budget was exhausted).
#: v3 added the per-cell ``program_sha256`` column: the SHA-256 of the
#: printed vector program, which pins the emitted code byte for byte.
BENCH_SCHEMA = "repro-bench/v3"

#: Schemas :func:`validate_bench` accepts: current plus still-readable
#: older revisions (v1 documents lack ``optimality_gap``, v1 and v2
#: documents lack ``program_sha256``).
KNOWN_BENCH_SCHEMAS = ("repro-bench/v1", "repro-bench/v2", "repro-bench/v3")

#: Default node budget for the per-cell exact pass behind
#: ``optimality_gap``: enough to prove the small/medium kernels optimal,
#: bounded so the heavy cells (dsp_idct8, dsp_sbc) report ``null`` in
#: seconds instead of minutes.  This is the *quick probe* budget; the
#: *proof* budget for targeted single-kernel runs is
#: :data:`repro.vectorizer.context.DEFAULT_EXACT_NODE_BUDGET` (8x
#: larger, the ``repro vectorize --exact`` default) — the two are
#: deliberately distinct because the bench pass runs 132 cells and the
#: proof path runs one.
DEFAULT_GAP_NODE_BUDGET = 50000

#: The default benchmark target matrix (§7 evaluates the x86 ISAs;
#: neon128 is the second-family generator proof).
DEFAULT_TARGETS: Tuple[str, ...] = ("sse4", "avx2", "avx512_vnni",
                                    "neon128")

#: Default beam width: wide enough to exercise the real search, small
#: enough that the full 33-kernel × 3-target matrix stays fast.
DEFAULT_BEAM_WIDTH = 8

#: Default output file name (written at the current working directory,
#: conventionally the repo root).
DEFAULT_BENCH_PATH = "BENCH_vegen.json"

#: Cost-ratio slack for regression detection: ratios are deterministic,
#: so the tolerance only absorbs float formatting, not noise.
DEFAULT_COST_TOLERANCE = 0.01


def bench_one(kernel_name: str, function, target: str,
              beam_width: int = DEFAULT_BEAM_WIDTH,
              session=None, profile_top: int = 0,
              verify: bool = True, warm: bool = False,
              gap_node_budget: int = DEFAULT_GAP_NODE_BUDGET) -> Dict:
    """Benchmark one (kernel, target) cell with observability enabled.

    ``session`` (a :class:`repro.session.VectorizationSession`) lets the
    serial harness amortize target/pipeline setup across cells; omitted,
    a one-shot session is created (identical output either way).

    ``profile_top > 0`` runs the cell under :mod:`cProfile` and records
    the top-N functions by cumulative time in a ``profile`` list next to
    ``phases`` (``repro bench --profile``).  Profiling adds tracing
    overhead, so profiled wall times are not comparable to unprofiled
    runs — model costs and counters are unaffected.

    ``verify=True`` (the default) additionally runs TransVal translation
    validation over the emitted program and records its proof status in
    a ``verify`` column (``proved``/``validated``/``failed``) plus
    ``transval.*`` counters.  Verification runs after ``wall_s`` is
    measured, so vectorization wall times are unaffected.

    ``warm=True`` turns on the content-addressed warm-start cost cache
    (``VectorizerConfig(warm_start=True)``; point ``REPRO_WARM_CACHE_DIR``
    at a directory for cross-process reuse).  The warm-start contract
    guarantees identical packs and costs to a cold run — only wall
    times and ``beam.warmstart_*``/node counters change — so warm and
    cold documents ``--compare`` clean against each other.

    ``gap_node_budget`` bounds the exhaustive branch-and-bound pass
    behind the ``optimality_gap`` column: after the measured run, the
    cell is re-vectorized with ``exact=True`` under this budget and the
    column records ``beam vector cost - exact vector cost`` (``0.0``
    means the beam already found the proved optimum) or ``null`` when
    the budget was exhausted before the proof finished.  ``0`` disables
    the exact pass entirely (the column is then an explicit ``null``).
    The exact pass runs after ``wall_s``/``phases`` are measured and
    never touches the recorded costs, so v1 trajectories compare clean
    against v2 documents.
    """
    from repro.obs.counters import Counters
    from repro.obs.trace import Tracer
    from repro.session import VectorizationSession
    from repro.vectorizer.context import VectorizerConfig

    if session is None:
        config = VectorizerConfig(beam_width=beam_width,
                                  warm_start=warm) if warm else None
        session = VectorizationSession(target=target,
                                       beam_width=beam_width,
                                       config=config)
    tracer = Tracer()
    counters = Counters()
    profiler = None
    if profile_top > 0:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    start = time.perf_counter()
    result = session.vectorize(function, tracer=tracer,
                               counters=counters)
    wall_s = time.perf_counter() - start
    if profiler is not None:
        profiler.disable()
    verify_status = None
    if verify:
        from repro.analysis.transval import validate_result

        report = validate_result(result, counters=counters)
        verify_status = report.status
    optimality_gap = None
    if gap_node_budget > 0:
        exact_counters = Counters()
        exact_session = VectorizationSession(
            target=target, beam_width=beam_width,
            config=VectorizerConfig(beam_width=beam_width, exact=True,
                                    exact_node_budget=gap_node_budget),
        )
        exact_result = exact_session.vectorize(function,
                                               counters=exact_counters)
        if exact_counters.get("beam.exact_proved") > 0:
            optimality_gap = round(
                result.cost.total - exact_result.cost.total, 6
            )
    phases = tracer.phase_times()
    phases.pop("vectorize", None)  # the root duplicates wall_s
    scalar = result.scalar_cost
    vector = result.cost.total
    cell = {
        "kernel": kernel_name,
        "target": target,
        "vectorized": result.vectorized,
        "num_packs": len(result.packs),
        "scalar_cost": scalar,
        "vector_cost": vector,
        "cost_ratio": (vector / scalar) if scalar > 0 else 1.0,
        "wall_s": wall_s,
        "phases": {name: round(dur, 6)
                   for name, dur in sorted(phases.items())},
        "counters": counters.as_dict(),
        # Number (0.0 = beam proved optimal) or explicit null (exact
        # node budget exhausted / exact pass disabled) — never omitted.
        "optimality_gap": optimality_gap,
        "program_sha256": program_digest(result.program),
    }
    if verify_status is not None:
        cell["verify"] = verify_status
    if profiler is not None:
        cell["profile"] = _top_profile_entries(profiler, profile_top)
    return cell


def program_digest(program) -> str:
    """SHA-256 (hex) of a vector program's printed form."""
    return hashlib.sha256(program.dump().encode("utf-8")).hexdigest()


def _top_profile_entries(profiler, top: int) -> List[Dict]:
    """The profiler's top-``top`` functions by cumulative time.

    Each entry is ``{"function", "ncalls", "tottime", "cumtime"}`` with
    the function named ``file:line(name)`` (paths trimmed to the last
    two components so documents are machine-independent-ish)."""
    import pstats

    stats = pstats.Stats(profiler)
    entries = []
    for (filename, lineno, name), (cc, nc, tt, ct, _callers) in \
            stats.stats.items():  # type: ignore[attr-defined]
        short = "/".join(filename.replace("\\", "/").split("/")[-2:])
        entries.append({
            "function": f"{short}:{lineno}({name})",
            "ncalls": nc,
            "tottime": round(tt, 6),
            "cumtime": round(ct, 6),
        })
    entries.sort(key=lambda e: (-e["cumtime"], e["function"]))
    return entries[:top]


def _bench_cell(task: Tuple[str, str, int, int, bool, bool, int]) -> Dict:
    """Process-pool worker: benchmark one (kernel, target) cell.

    Takes only picklable names — each worker process rebuilds the kernel
    from the bundled sources and populates its own target registry, so
    no IR or target state ever crosses the process boundary."""
    from repro.kernels import all_kernels

    (kernel_name, target, beam_width, profile_top, verify, warm,
     gap_node_budget) = task
    return bench_one(kernel_name, all_kernels()[kernel_name], target,
                     beam_width, profile_top=profile_top, verify=verify,
                     warm=warm, gap_node_budget=gap_node_budget)


def run_bench(kernel_names: Optional[Sequence[str]] = None,
              targets: Sequence[str] = DEFAULT_TARGETS,
              beam_width: int = DEFAULT_BEAM_WIDTH,
              progress: Optional[Callable[[str], None]] = None,
              jobs: int = 1, profile_top: int = 0,
              verify: bool = True, warm: bool = False,
              gap_node_budget: int = DEFAULT_GAP_NODE_BUDGET) -> Dict:
    """Run the kernel × target matrix; returns the bench document.

    ``jobs > 1`` fans the cells out over a ``ProcessPoolExecutor``.
    Results are merged back in the serial (target-outer, kernel-inner)
    order, so the document is identical to a ``jobs=1`` run except for
    wall times and the recorded ``jobs`` value.

    ``profile_top > 0`` profiles every cell under :mod:`cProfile` and
    records each cell's top-N cumulative functions (see
    :func:`bench_one`).  ``verify=False`` skips the per-cell TransVal
    verification column.  ``warm=True`` enables the warm-start cost
    cache and ``gap_node_budget`` bounds the ``optimality_gap`` exact
    pass (see :func:`bench_one` for both)."""
    from repro import __version__
    from repro.kernels import all_kernels

    kernels = all_kernels()
    if kernel_names is None:
        selected = sorted(kernels)
    else:
        unknown = [n for n in kernel_names if n not in kernels]
        if unknown:
            raise KeyError(
                f"unknown kernels: {', '.join(sorted(unknown))}; "
                f"available: {', '.join(sorted(kernels))}"
            )
        selected = list(kernel_names)

    tasks = [(name, target, beam_width, profile_top, verify, warm,
              gap_node_budget)
             for target in targets for name in selected]
    total_start = time.perf_counter()
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # executor.map preserves submission order: the merge is
            # deterministic no matter which worker finishes first.
            if progress is not None:
                progress(f"bench {len(tasks)} cells over {jobs} workers")
            results = list(pool.map(_bench_cell, tasks))
    else:
        from repro.session import VectorizationSession
        from repro.vectorizer.context import VectorizerConfig

        results = []
        sessions: Dict[Tuple[str, int], object] = {}
        for name, target, width, top, do_verify, do_warm, budget in tasks:
            if progress is not None:
                progress(f"bench {name} on {target}")
            key = (target, width)
            if key not in sessions:
                config = VectorizerConfig(beam_width=width,
                                          warm_start=True) \
                    if do_warm else None
                sessions[key] = VectorizationSession(target=target,
                                                     beam_width=width,
                                                     config=config)
            results.append(
                bench_one(name, kernels[name], target, width,
                          session=sessions[key], profile_top=top,
                          verify=do_verify, warm=do_warm,
                          gap_node_budget=budget)
            )
    total_wall = time.perf_counter() - total_start

    ratios = [r["cost_ratio"] for r in results if r["cost_ratio"] > 0]
    geomean = (
        math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        if ratios else 1.0
    )
    gaps = [r["optimality_gap"] for r in results]
    summary = {
        "num_results": len(results),
        "num_vectorized": sum(1 for r in results if r["vectorized"]),
        "geomean_cost_ratio": geomean,
        "total_wall_s": round(total_wall, 3),
        "num_gap_proved": sum(1 for g in gaps if g is not None),
        "num_gap_zero": sum(1 for g in gaps if g == 0),
    }
    if verify:
        summary["num_proved"] = sum(
            1 for r in results if r.get("verify") == "proved"
        )
    return {
        "schema": BENCH_SCHEMA,
        "version": __version__,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S",
                                      time.gmtime()),
        "python": platform.python_version(),
        "beam_width": beam_width,
        "jobs": jobs,
        "warm_start": warm,
        "gap_node_budget": gap_node_budget,
        "targets": list(targets),
        "kernels": selected,
        "results": results,
        "summary": summary,
    }


# -- schema ------------------------------------------------------------

_RESULT_FIELDS = {
    "kernel": str,
    "target": str,
    "vectorized": bool,
    "num_packs": int,
    "scalar_cost": (int, float),
    "vector_cost": (int, float),
    "cost_ratio": (int, float),
    "wall_s": (int, float),
    "phases": dict,
    "counters": dict,
}


def validate_bench(doc: Dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a valid bench document.

    Accepts every schema in :data:`KNOWN_BENCH_SCHEMAS`: v1 documents
    (no ``optimality_gap``) stay loadable as ``--compare`` baselines;
    v2 documents must carry the column in *every* cell — a number or an
    explicit ``null``, never a silent omission — and v3 documents must
    also carry a 64-digit hex ``program_sha256`` in every cell."""
    if not isinstance(doc, dict):
        raise ValueError("bench document must be a JSON object")
    schema = doc.get("schema")
    if schema not in KNOWN_BENCH_SCHEMAS:
        raise ValueError(
            f"unknown bench schema {schema!r}; "
            f"expected one of {KNOWN_BENCH_SCHEMAS!r}"
        )
    for field in ("version", "beam_width", "targets", "kernels",
                  "results", "summary"):
        if field not in doc:
            raise ValueError(f"bench document missing field {field!r}")
    if not isinstance(doc["results"], list):
        raise ValueError("'results' must be a list")
    for i, result in enumerate(doc["results"]):
        for field, types in _RESULT_FIELDS.items():
            if field not in result:
                raise ValueError(f"results[{i}] missing field {field!r}")
            if not isinstance(result[field], types):
                raise ValueError(
                    f"results[{i}].{field} has type "
                    f"{type(result[field]).__name__}"
                )
        if schema != "repro-bench/v1":
            if "optimality_gap" not in result:
                raise ValueError(
                    f"results[{i}] missing field 'optimality_gap' "
                    f"(v2 cells must report a number or explicit null)"
                )
            gap = result["optimality_gap"]
            if gap is not None and not isinstance(gap, (int, float)):
                raise ValueError(
                    f"results[{i}].optimality_gap must be a number "
                    f"or null"
                )
        if schema not in ("repro-bench/v1", "repro-bench/v2"):
            digest = result.get("program_sha256")
            if not isinstance(digest, str) or len(digest) != 64 or \
                    digest.strip("0123456789abcdef"):
                raise ValueError(
                    f"results[{i}] missing or malformed "
                    f"'program_sha256' (v3 cells carry the hex SHA-256 "
                    f"of the printed program)"
                )
        for name, value in result["phases"].items():
            if not isinstance(name, str) or \
                    not isinstance(value, (int, float)):
                raise ValueError(f"results[{i}].phases malformed")
        for name, value in result["counters"].items():
            if not isinstance(name, str) or not isinstance(value, int):
                raise ValueError(f"results[{i}].counters malformed")
        if "verify" in result:  # optional: present unless --no-verify
            if not isinstance(result["verify"], str):
                raise ValueError(f"results[{i}].verify must be a string")
        if "profile" in result:  # optional: present under --profile
            if not isinstance(result["profile"], list):
                raise ValueError(f"results[{i}].profile must be a list")
            for j, entry in enumerate(result["profile"]):
                if not isinstance(entry, dict) or \
                        not isinstance(entry.get("function"), str) or \
                        not isinstance(entry.get("ncalls"), int) or \
                        not isinstance(entry.get("tottime"),
                                       (int, float)) or \
                        not isinstance(entry.get("cumtime"),
                                       (int, float)):
                    raise ValueError(
                        f"results[{i}].profile[{j}] malformed"
                    )
    seen = set()
    for result in doc["results"]:
        key = (result["kernel"], result["target"])
        if key in seen:
            raise ValueError(f"duplicate result for {key}")
        seen.add(key)


def write_bench(doc: Dict, path: str = DEFAULT_BENCH_PATH) -> None:
    validate_bench(doc)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bench(path: str) -> Dict:
    with open(path) as handle:
        doc = json.load(handle)
    validate_bench(doc)
    return doc


# -- comparison --------------------------------------------------------

def compare_bench(old: Dict, new: Dict,
                  cost_tolerance: float = DEFAULT_COST_TOLERANCE
                  ) -> Tuple[List[str], List[str]]:
    """Compare two bench documents.

    Returns ``(regressions, notes)``: regressions are hard failures
    (cost ratio got worse beyond tolerance, the pack count changed, a
    kernel stopped vectorizing, a previously-covered cell disappeared,
    or — when both documents carry ``program_sha256`` — the emitted
    program changed by a single byte); notes are informational
    (wall-time deltas, new coverage).  Schema-tolerant: v1 and v2
    baselines compare against v3 documents on the columns both carry —
    the ``optimality_gap`` column is ignored here (it never feeds the
    search, so it cannot regress costs) and digests are compared only
    when both cells have one.
    """
    regressions: List[str] = []
    notes: List[str] = []
    old_by_key = {(r["kernel"], r["target"]): r for r in old["results"]}
    new_by_key = {(r["kernel"], r["target"]): r for r in new["results"]}

    for key in sorted(old_by_key):
        kernel, target = key
        old_r = old_by_key[key]
        new_r = new_by_key.get(key)
        if new_r is None:
            regressions.append(
                f"{kernel}/{target}: present in old bench but missing "
                f"from new"
            )
            continue
        if old_r["vectorized"] and not new_r["vectorized"]:
            regressions.append(
                f"{kernel}/{target}: was vectorized, now scalar"
            )
        if old_r["num_packs"] != new_r["num_packs"]:
            regressions.append(
                f"{kernel}/{target}: pack count changed "
                f"{old_r['num_packs']} -> {new_r['num_packs']}"
            )
        old_digest = old_r.get("program_sha256")
        new_digest = new_r.get("program_sha256")
        if old_digest is not None and new_digest is not None and \
                old_digest != new_digest:
            regressions.append(
                f"{kernel}/{target}: program digest changed "
                f"{old_digest[:12]} -> {new_digest[:12]}"
            )
        old_ratio = old_r["cost_ratio"]
        new_ratio = new_r["cost_ratio"]
        if new_ratio > old_ratio * (1.0 + cost_tolerance):
            regressions.append(
                f"{kernel}/{target}: cost ratio regressed "
                f"{old_ratio:.4f} -> {new_ratio:.4f} "
                f"({(new_ratio / old_ratio - 1) * 100:+.1f}%)"
            )
        elif new_ratio < old_ratio / (1.0 + cost_tolerance):
            notes.append(
                f"{kernel}/{target}: cost ratio improved "
                f"{old_ratio:.4f} -> {new_ratio:.4f}"
            )
        old_wall = old_r["wall_s"]
        new_wall = new_r["wall_s"]
        if old_wall > 0 and (new_wall > old_wall * 1.5 or
                             new_wall < old_wall / 1.5):
            notes.append(
                f"{kernel}/{target}: wall time {old_wall:.3f}s -> "
                f"{new_wall:.3f}s (informational; machine-dependent)"
            )
    for key in sorted(set(new_by_key) - set(old_by_key)):
        notes.append(f"{key[0]}/{key[1]}: new coverage")
    return regressions, notes


def render_bench_summary(doc: Dict, stream=None) -> None:
    """Print a human-readable table of one bench document."""
    out = stream or sys.stdout
    summary = doc["summary"]
    print(
        f"repro bench: {summary['num_results']} kernel/target cells, "
        f"{summary['num_vectorized']} vectorized, geomean cost ratio "
        f"{summary['geomean_cost_ratio']:.4f} "
        f"(beam width {doc['beam_width']}, "
        f"{summary['total_wall_s']:.1f}s)",
        file=out,
    )
    has_verify = any("verify" in r for r in doc["results"])
    has_gap = any("optimality_gap" in r for r in doc["results"])
    header = (f"{'kernel':28s} {'target':12s} {'ratio':>7s} "
              f"{'packs':>5s} {'wall':>8s}")
    if has_verify:
        header += f" {'verify':>9s}"
    if has_gap:
        header += f" {'gap':>7s}"
    print(header, file=out)
    print("-" * len(header), file=out)
    for result in doc["results"]:
        line = (
            f"{result['kernel']:28s} {result['target']:12s} "
            f"{result['cost_ratio']:7.4f} {result['num_packs']:5d} "
            f"{result['wall_s'] * 1e3:7.1f}ms"
        )
        if has_verify:
            line += f" {result.get('verify', '-'):>9s}"
        if has_gap:
            gap = result.get("optimality_gap")
            line += f" {'null':>7s}" if gap is None else f" {gap:7.1f}"
        print(line, file=out)
