"""``repro.session`` and the ``repro.passes`` pass manager."""

import threading

import pytest

from repro.kernels import all_kernels
from repro.obs import Counters, Tracer
from repro.passes import (
    ALL,
    PipelineState,
    available_passes,
    build_pipeline,
    default_passes,
)
from repro.session import VectorizationSession, vectorize_many
from repro.target import get_target
from repro.vectorizer import vectorize

KERNELS = all_kernels()


class TestSession:
    def test_matches_one_shot_vectorize(self):
        fn = KERNELS["tvm_dot"]
        session = VectorizationSession(target="avx2", beam_width=4)
        a = session.vectorize(fn)
        b = vectorize(fn, target="avx2", beam_width=4)
        assert a.program.dump() == b.program.dump()
        assert vars(a.cost) == vars(b.cost)

    def test_session_reuse_is_deterministic(self):
        session = VectorizationSession(target="avx2", beam_width=4)
        fn = KERNELS["complex_mul"]
        first = session.vectorize(fn)
        second = session.vectorize(fn)
        assert first.program.dump() == second.program.dump()

    def test_vectorize_many_preserves_order(self):
        names = ["tvm_dot", "complex_mul", "isel_hadd_ps"]
        session = VectorizationSession(target="avx2", beam_width=4)
        results = session.vectorize_many(KERNELS[n] for n in names)
        assert [r.function.name for r in results] == \
            [KERNELS[n].name for n in names]

    def test_module_level_vectorize_many(self):
        results = vectorize_many(
            [KERNELS["tvm_dot"], KERNELS["complex_mul"]],
            target="avx2", beam_width=4,
        )
        assert len(results) == 2
        assert all(r.program is not None for r in results)

    def test_target_desc_input_skips_target_build_span(self):
        target = get_target("avx2")
        tracer = Tracer()
        session = VectorizationSession(target=target, beam_width=4)
        session.vectorize(KERNELS["tvm_dot"], tracer=tracer)
        assert tracer.root.find("target_build") is None

    def test_str_target_emits_target_build_span(self):
        tracer = Tracer()
        session = VectorizationSession(target="avx2", beam_width=4)
        session.vectorize(KERNELS["tvm_dot"], tracer=tracer)
        assert tracer.root.find("target_build") is not None

    def test_input_function_never_mutated(self):
        from repro.ir.printer import print_function

        fn = KERNELS["complex_mul"]
        before = print_function(fn)
        VectorizationSession(target="avx2", beam_width=2).vectorize(fn)
        assert print_function(fn) == before

    def test_repr_names_target_and_passes(self):
        session = VectorizationSession(target="sse4", beam_width=2)
        text = repr(session)
        assert "sse4" in text and "select-packs" in text


class TestPassManager:
    def test_available_passes_is_sorted_and_complete(self):
        names = available_passes()
        assert names == sorted(names)
        for required in ("canonicalize", "select-packs", "codegen",
                         "scalar-cost", "reassociate", "sanitize"):
            assert required in names

    def test_build_pipeline_rejects_unknown(self):
        with pytest.raises(KeyError):
            build_pipeline(["select-packs", "nonsense"])

    def test_default_passes_shape(self):
        names = [p.name for p in default_passes()]
        assert names == ["canonicalize", "select-packs", "scalar-cost",
                         "codegen"]
        names = [p.name for p in default_passes(reassociate=True,
                                                sanitize=True)]
        assert names == ["canonicalize", "reassociate", "select-packs",
                         "scalar-cost", "codegen", "sanitize"]

    def test_implicit_codegen_completion(self):
        """A pipeline without codegen still yields a costed program."""
        session = VectorizationSession(
            target="avx2", beam_width=4,
            pipeline=build_pipeline(["select-packs", "scalar-cost"]),
        )
        result = session.vectorize(KERNELS["tvm_dot"])
        assert result.program is not None
        assert result.cost is not None

    def test_custom_pipeline_skipping_canonicalize_differs_only_upstream(
            self):
        """`--passes` pipelines are honored: dropping canonicalize changes
        the input IR the selector sees (sanity check that the pipeline
        list is actually what runs)."""
        fn = KERNELS["complex_mul"]
        default = VectorizationSession(target="avx2", beam_width=2)
        custom = VectorizationSession(
            target="avx2", beam_width=2,
            pipeline=build_pipeline(
                ["select-packs", "scalar-cost", "codegen"],
                canonicalize_input=False,
            ),
        )
        assert default.vectorize(fn).program.dump()  # both still lower
        assert custom.vectorize(fn).program.dump()

    def test_counters_track_pass_runs(self):
        counters = Counters()
        session = VectorizationSession(target="avx2", beam_width=4)
        session.vectorize(KERNELS["tvm_dot"], counters=counters)
        # canonicalize, select-packs, scalar-cost, codegen
        assert counters["passes.runs"] == 4
        # select-packs builds the context; scalar-cost and codegen
        # reuse cached analyses rather than rebuilding.
        assert counters["passes.analysis_reuses"] >= 1

    def test_analysis_cache_invalidation(self):
        from repro.vectorizer.context import VectorizerConfig

        fn = KERNELS["tvm_dot"]
        state = PipelineState(
            fn, get_target("avx2"),
            config=VectorizerConfig(beam_width=2),
        )
        cache = state.analyses
        for key in ("context", "scalar_cost"):
            cache.ensure(key)
        assert cache.cached("context") and cache.cached("scalar_cost")
        # A pass preserving nothing drops everything.
        cache.retain(frozenset())
        assert not cache.cached("context")
        assert not cache.cached("scalar_cost")
        # ALL preserves everything.
        cache.ensure("context")
        cache.retain(ALL)
        assert cache.cached("context")

    def test_dropping_context_drops_derived_analyses(self):
        from repro.vectorizer.context import VectorizerConfig

        state = PipelineState(
            KERNELS["tvm_dot"], get_target("avx2"),
            config=VectorizerConfig(beam_width=2),
        )
        cache = state.analyses
        for key in ("context", "dep_graph", "match_table"):
            cache.ensure(key)
        cache.retain(frozenset({"dep_graph", "match_table"}))
        # dep_graph/match_table are views into the context; dropping the
        # context invalidates them even if a pass claimed to keep them.
        assert not cache.cached("dep_graph")
        assert not cache.cached("match_table")

    def test_sanitize_pass_runs_clean_on_kernel(self):
        session = VectorizationSession(target="avx2", beam_width=4,
                                       sanitize=True)
        result = session.vectorize(KERNELS["tvm_dot"])
        assert result.program is not None


class TestThreadSafety:
    def test_concurrent_cold_get_target(self):
        """Many threads racing a cold registry all get the same object."""
        import repro.target.registry as registry

        registry.clear_caches()
        results = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            results.append(registry.get_target("sse4"))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        assert all(t is results[0] for t in results)

    def test_concurrent_cold_baseline_target(self):
        from repro.baseline import clear_baseline_cache, \
            get_baseline_target

        clear_baseline_cache()
        results = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            results.append(get_baseline_target("avx2"))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(t is results[0] for t in results)
