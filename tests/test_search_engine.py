"""Regression tests for the pack-selection search engine: determinism
under hash randomization, the load-pack run-splitter, Argument-lane
completion accounting, and the ``beam.*`` counters.
"""

import os
import subprocess
import sys

import pytest

from repro.ir import Function, IRBuilder, I16, pointer_to
from repro.kernels import all_kernels
from repro.obs import Counters, Tracer
from repro.obs.counters import COUNTER_NAMES
from repro.session import VectorizationSession
from repro.target import get_target
from repro.vectorizer import VectorizationContext, VectorizerConfig
from repro.vectorizer.beam import BeamSearch, SearchState
from repro.vectorizer.report import render_report


# -- determinism under hash randomization ------------------------------


_DETERMINISM_SCRIPT = """\
from repro.kernels import all_kernels
from repro.session import VectorizationSession

kernels = all_kernels()
for name in ("complex_mul", "dsp_idct4"):
    session = VectorizationSession(target="sse4", beam_width=4)
    result = session.vectorize(kernels[name])
    print(name, result.cost.total, len(result.packs))
    print(result.program.dump())
"""


class TestDeterminism:
    def test_search_is_stable_under_hash_randomization(self):
        """Two interpreter runs with different PYTHONHASHSEED values
        must select the same packs and emit the same program:
        hash-dependent iteration order varies per process and must never
        leak into the search (states iterate their operands in
        registration order)."""
        src_root = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ,
                       PYTHONHASHSEED=seed, PYTHONPATH=src_root)
            proc = subprocess.run(
                [sys.executable, "-c", _DETERMINISM_SCRIPT],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


# -- the load-pack run-splitter ----------------------------------------


def _load_search(num_loads=6):
    """A context whose function loads A[0..num_loads) and B[0..2) and
    stores pairwise sums (so every load has a user)."""
    fn = Function("loads", [("A", pointer_to(I16)),
                            ("B", pointer_to(I16)),
                            ("O", pointer_to(I16))])
    b = IRBuilder(fn)
    A, B, O = fn.args
    la = [b.load(A, i) for i in range(num_loads)]
    lb = [b.load(B, i) for i in range(2)]
    for i, load in enumerate(la):
        b.store(b.add(load, lb[i % 2]), O, i)
    b.ret()
    ctx = VectorizationContext(fn, get_target("sse4"))
    return BeamSearch(ctx), la, lb


class TestLoadPackRunSplitting:
    def test_non_contiguous_offsets_split_into_runs(self):
        search, la, _ = _load_search()
        operand = (la[0], la[1], la[3], la[4])
        packs = search._load_packs_uncached(operand)
        spans = sorted(
            (p.first_offset, p.first_offset + len(p.loads) - 1)
            for p in packs
        )
        assert spans == [(0, 1), (3, 4)]

    def test_runs_from_two_bases_stay_separate(self):
        search, la, lb = _load_search()
        operand = (la[0], la[1], lb[0], lb[1])
        packs = search._load_packs_uncached(operand)
        assert len(packs) == 2
        bases = {id(p.base) for p in packs}
        assert len(bases) == 2
        for p in packs:
            assert [l for l in p.loads] == sorted(
                p.loads, key=lambda l: search.ctx.dep_graph
                .access_location(l)[1]
            )

    def test_duplicate_elements_collapse_into_one_run(self):
        search, la, _ = _load_search()
        operand = (la[0], la[0], la[1], la[2])
        packs = search._load_packs_uncached(operand)
        assert len(packs) == 1
        assert packs[0].loads == (la[0], la[1], la[2])

    def test_run_equal_to_whole_operand_is_excluded(self):
        # The whole-operand vector load is already found by producer
        # enumeration; re-emitting it here would duplicate work.
        search, la, _ = _load_search()
        operand = (la[0], la[1], la[2], la[3])
        assert search._load_packs_uncached(operand) == []

    def test_permuted_whole_run_is_kept(self):
        # A permutation of a contiguous run is NOT the operand itself:
        # the load covers it modulo a shuffle (the Figure 12 pattern).
        search, la, _ = _load_search()
        operand = (la[1], la[0], la[3], la[2])
        packs = search._load_packs_uncached(operand)
        assert len(packs) == 1
        assert packs[0].loads == (la[0], la[1], la[2], la[3])


# -- Argument-lane completion accounting -------------------------------


class TestArgumentLaneCompletion:
    def _search_with_argument_operand(self):
        fn = Function("argmix", [("A", pointer_to(I16)), ("s", I16),
                                 ("O", pointer_to(I16))])
        b = IRBuilder(fn)
        A, s, O = fn.args
        l0 = b.load(A, 0)
        l1 = b.load(A, 1)
        b.store(b.add(l0, s), O, 0)
        b.store(b.add(l1, s), O, 1)
        b.ret()
        ctx = VectorizationContext(fn, get_target("sse4"))
        search = BeamSearch(ctx)
        return search, (l0, s), l0

    def test_argument_lanes_pay_no_insert_in_completion(self):
        """Regression: an Argument lane in a live operand must not be
        charged ``c_insert`` by the scalar completion — it was already
        paid for by the foreign-element cost when the operand entered V
        (Arguments can never be produced or scalar-fixed)."""
        search, operand, l0 = self._search_with_argument_operand()
        opid = search._register_operand(operand)
        free = (1 << len(search.ctx.dep_graph.instructions)) - 1
        state = SearchState(1 << opid, 0, free, (), 0.0)
        total = search._scalar_completion_uncached(state)
        est = search.estimator
        slice_bits = est.scalar_slice_bits([l0]) & free
        expected = (search.model.c_insert * 1  # the load lane only
                    + est.cost_of_bits(slice_bits))
        assert total == pytest.approx(expected)

    def test_memoized_and_plain_completion_agree(self):
        search, operand, _ = self._search_with_argument_operand()
        opid = search._register_operand(operand)
        free = (1 << len(search.ctx.dep_graph.instructions)) - 1
        state = SearchState(1 << opid, 0, free, (), 0.0)
        # Twice: the second call exercises the memo-hit path, which
        # must return the value the first call stored.
        first = search._scalar_completion(state)
        assert search._scalar_completion(state) == first
        assert first == search._scalar_completion_uncached(state)


# -- the new counters --------------------------------------------------


class TestSearchCounters:
    NEW_COUNTERS = ("beam.incumbent_prunes", "beam.apply_reject_hits",
                    "beam.seed_skips")

    def test_counters_are_registered(self):
        for name in self.NEW_COUNTERS:
            assert name in COUNTER_NAMES

    def test_counters_fire_and_render_in_trace_report(self):
        kernels = all_kernels()
        counters = Counters()
        session = VectorizationSession(target="sse4", beam_width=2)
        result = session.vectorize(kernels["complex_mul"],
                                   counters=counters, tracer=Tracer())
        for name in self.NEW_COUNTERS:
            assert counters.get(name) > 0, name
        report = render_report(result)
        for name in self.NEW_COUNTERS:
            assert name in report, name

    def test_bound_counters_fire(self, monkeypatch):
        """Only the exact pass builds and reads the admissible bound: a
        beam-only compile constructs no ``MatchingLowerBound`` and
        evaluates none, an exact one builds one and prunes with it."""
        from repro.vectorizer import beam

        built = []

        class CountingBound(beam.MatchingLowerBound):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(beam, "MatchingLowerBound", CountingBound)
        kernel = all_kernels()["dsp_fft4"]

        counters = Counters()
        session = VectorizationSession(target="sse4", beam_width=8)
        session.vectorize(kernel, counters=counters)
        assert not built
        assert counters.get("beam.bound_evals") == 0, counters.as_dict()

        counters = Counters()
        session = VectorizationSession(
            target="sse4", beam_width=8,
            config=VectorizerConfig(beam_width=8, exact=True,
                                    exact_node_budget=5000))
        session.vectorize(kernel, counters=counters)
        assert len(built) == 1
        assert counters.get("beam.bound_evals") > 0, counters.as_dict()
        assert counters.get("beam.bound_prunes") > 0, counters.as_dict()
