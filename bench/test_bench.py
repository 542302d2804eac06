"""Tests of the benchmark itself: ``python -m pytest bench/``.

The two ``--smoke --traced`` runs take about a minute together.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys
import time

import pytest

import measure as M
import speed
import tables as T

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m for m in SPEC["per_layer"]}

#: Metrics whose value must repeat exactly for the same seed: model costs
#: and the program's own work counts (not the collector's, which follow
#: allocation timing).
DETERMINISTIC = (["geomean_cost_ratio"]
                 + [n for n, m in LAYERS.items()
                    if m["unit"] == "count" and not n.startswith("python.")])


def _run_bench(*args):
    start = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"),
                           *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    return proc, time.monotonic() - start


def _result(proc):
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.fixture(scope="module")
def traced_smoke():
    return [_result(_run_bench("--seed", "0", "--smoke", "--traced")[0])
            for _ in range(2)]


def test_smoke_is_fast():
    proc, elapsed = _run_bench("--seed", "0", "--smoke")
    result = _result(proc)
    assert elapsed < 60, f"smoke run took {elapsed:.1f} s"
    assert set(result["metrics"]) == {f"{w}.{n}" for w in WORKLOADS
                                      for n in E2E}


def test_metric_names_declared_and_printed(traced_smoke):
    printed = {}
    for key, value in traced_smoke[0]["metrics"].items():
        workload, name = key.split(".", 1)
        assert workload in WORKLOADS
        assert NAME_RE.match(name), name
        printed.setdefault(workload, set()).add(name)
        declared = E2E.get(name) or LAYERS.get(name)
        assert declared is not None, f"{name} is not in BENCHMARK.json"
        assert value["unit"] == declared["unit"]
        assert isinstance(value["value"], (int, float))
    for workload in WORKLOADS:
        assert printed[workload] == set(E2E) | set(LAYERS), workload


def test_prove_cells_come_from_both_strata():
    half = len(T.PROVE_CELLS) // 2
    proved, exhausted = T.PROVE_CELLS[:half], T.PROVE_CELLS[half:]
    assert set(proved) <= set(T.PROVED_CELLS)
    assert set(exhausted) <= set(T.EXHAUSTED_CELLS)
    assert len(T.PROVED_CELLS) + len(T.EXHAUSTED_CELLS) == 116


def test_scaler_puts_intervals_at_the_reference_speed():
    ref, tick = speed.REFERENCE_S, 1 / speed.CLOCK_TICKS
    full = speed.Scaler([(t / 50, ref, 0) for t in range(100)])
    half = speed.Scaler([(t / 50, 2 * ref, 0) for t in range(100)])
    # a quarter of the time stolen: one tick every four ticks' time
    stolen = speed.Scaler([(t / 50, ref, round(t / 50 / tick / 4))
                           for t in range(100)])
    assert full.seconds(0.5, 1.5) == pytest.approx(1.0)
    assert half.seconds(0.5, 1.5) == pytest.approx(0.5)
    assert stolen.seconds(0.5, 1.5) == pytest.approx(0.75, rel=0.02)
    # an interval between two samples goes by the nearest ones
    assert half.seconds(0.101, 0.102) == pytest.approx(0.0005)


def test_declared_names_follow_the_rules():
    names = [w["name"] for w in SPEC["workloads"]] + list(E2E) + list(LAYERS)
    assert all(NAME_RE.match(n) and len(n) <= 64 for n in names)
    assert len(set(list(E2E) + list(LAYERS))) == len(E2E) + len(LAYERS)
    assert E2E["setup_s"]["bound"] == max(m["bound"] for m in E2E.values())


def test_deterministic_metrics_repeat(traced_smoke):
    first, second = (r["metrics"] for r in traced_smoke)
    for workload in WORKLOADS:
        for name in DETERMINISTIC:
            key = f"{workload}.{name}"
            assert first[key]["value"] == second[key]["value"], key


def test_no_program_no_result(tmp_path):
    """Without the program next to it the benchmark fails loudly and
    prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "prove", "--seed",
         "0", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


# -- in process ---------------------------------------------------------------

CELLS = [("isel_pmaddwd", "avx2"), ("complex_mul", "sse4"),
         ("dsp_fft4", "neon128"), ("tvm_dot", "avx512_vnni")]


def _compile(cell, pipeline=None):
    from repro.kernels import all_kernels
    from repro.session import VectorizationSession

    kernel, target = cell
    session = VectorizationSession(target=target, beam_width=8,
                                   pipeline=pipeline)
    return all_kernels()[kernel], session.vectorize(all_kernels()[kernel])


@pytest.mark.parametrize("cell", CELLS)
def test_wrapped_pipeline_emits_identical_programs(cell):
    _, plain = _compile(cell)
    trace = M.LayerTrace()
    _, wrapped = _compile(cell, trace.pipeline())
    assert wrapped.program.dump() == plain.program.dump()
    assert wrapped.cost.total == plain.cost.total
    assert {s.name for r in trace.tracer.roots for s in r.walk()} >= {
        "vectorizer.select_packs", "vectorizer.codegen"}


def test_checker_catches_swapped_pack_lanes():
    from repro.vectorizer.vector_ir import VGather

    caught = 0
    for cell in CELLS:
        original, result = _compile(cell)
        assert M.program_matches(original, result.program, random.Random(0))
        for node in result.program.nodes:
            if not isinstance(node, VGather):
                continue
            lanes = [i for i, s in enumerate(node.sources)
                     if s.kind in ("lane", "scalar")]
            pair = next(((i, j) for i in lanes for j in lanes
                         if i < j and node.sources[i] != node.sources[j]),
                        None)
            if pair is None:
                continue
            i, j = pair
            node.sources[i], node.sources[j] = node.sources[j], node.sources[i]
            assert not M.program_matches(original, result.program,
                                         random.Random(0)), cell
            caught += 1
            break
    assert caught >= 1
