"""Property tests for the search's allocation-lean pricing paths.

The Figure 7 estimate prices producers without building what the plain
code builds.  Each fast path is checked against the plain code on states
sampled along real search trajectories (states reachable by
``expand()`` from the root), in the style of
``tests/test_bound_property.py``:

* **Producer pricing table** — entry ``i`` of an operand's
  ``ProducerList.priced`` equals ``(pack_op_cost(p), operands of p)``
  for the ``i``-th pack ``p`` of the materialized producer list, each
  sub-operand is the context's interned tuple, and every pack is built
  once.
* **Leaf estimate** — ``_leaf_estimate(sub, free, counted)`` equals
  ``_estimate_residual(..., depth=0)`` on the sub-operand's residual, for
  every producer sub-operand of every live operand, under the state's
  free set and an arbitrary one (on reachable states every free
  instruction's backward closure is free too, which arbitrary sets
  break), with arbitrary ``counted`` sets, and builds no residual tuple,
  operand key or memo triple on the way.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.frontend import compile_kernel
from repro.kernels import all_kernels
from repro.patterns.canonicalize import canonicalize_function
from repro.target import get_target
from repro.vectorizer import (
    VectorizationContext,
    VectorizerConfig,
    clone_function,
)
from repro.vectorizer.beam import BitsetBeamSearch
from repro.vectorizer.producers import producer_table, producers_for_operand

from tests.test_optimal_oracle import TINY_KERNELS

#: A scalar argument in every lane: sub-operands that are broadcasts of
#: an argument (never in the block, never a real lane of a residual).
SCALE_ARG = """
void f(const int32_t *restrict a, int32_t k, int32_t *restrict c) {
    c[0] = a[0] * k + k;
    c[1] = a[1] * k + k;
    c[2] = a[2] * k + k;
    c[3] = a[3] * k + k;
}
"""
SOURCES = dict(TINY_KERNELS, scale_arg=SCALE_ARG)
KERNELS = ("pair_add", "hadd", "scale_arg", "tvm_dot", "dsp_idct4",
           "dsp_fft4")
TARGETS = ("sse4", "avx2", "neon128")

_search_cache = {}


def _search_for(kernel, target):
    """One search per (kernel, target): construction dominates the
    per-example cost, and the checked quantities are pure functions of
    their inputs, so memo state carried across examples is harmless."""
    key = (kernel, target)
    search = _search_cache.get(key)
    if search is None:
        if kernel in SOURCES:
            fn = compile_kernel(SOURCES[kernel])
        else:
            fn = all_kernels()[kernel]
        fn = clone_function(fn)
        canonicalize_function(fn)
        ctx = VectorizationContext(fn, get_target(target),
                                   config=VectorizerConfig(beam_width=8))
        search = BitsetBeamSearch(ctx)
        _search_cache[key] = search
    return search


def _walk(search, path):
    """Follow a trajectory of child indices from the root; stops at the
    first solved or childless state."""
    state = search.initial_state()
    for choice in path:
        children = search.expand(state)
        if not children:
            break
        state = children[choice % len(children)]
        if state.solved:
            break
    return state


def _priced_operands(search, state):
    """Live operands of the state and their residuals under its free
    set: the operands whose producers the estimate prices."""
    operands = []
    for operand in search._live_operands(state):
        operands.append(operand)
        operands.append(
            search._residual_operand_uncached(operand, state.free_bits))
    return operands


trajectory = st.tuples(
    st.sampled_from(KERNELS),
    st.sampled_from(TARGETS),
    st.lists(st.integers(min_value=0, max_value=15), max_size=6),
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trajectory)
def test_pricing_table_matches_materialized_producers(sample):
    kernel, target, path = sample
    search = _search_for(kernel, target)
    ctx = search.ctx
    state = _walk(search, path)
    for operand in _priced_operands(search, state):
        table = producer_table(operand, ctx)
        packs = producers_for_operand(operand, ctx)
        assert len(table.priced) == len(packs)
        for index, ((cost, subs), pack) in enumerate(
                zip(table.priced, packs)):
            assert cost == search.estimator.pack_op_cost(pack)
            # Tuple equality is element identity for IR values.
            assert subs == tuple(pack.operands())
            for sub in subs:
                assert ctx._interned_operands[sub] is sub
            assert table.pack(index, ctx) is pack
        assert producers_for_operand(operand, ctx) is packs


bitsets = st.integers(min_value=0, max_value=(1 << 256) - 1)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trajectory, bitsets, bitsets)
def test_leaf_estimate_matches_depth_zero_estimate(sample, free_bits,
                                                   counted_bits):
    kernel, target, path = sample
    search = _search_for(kernel, target)
    ctx = search.ctx
    state = _walk(search, path)
    everything = (1 << len(search._instructions)) - 1
    counted = counted_bits & everything
    operands = _priced_operands(search, state)
    for free in (state.free_bits, free_bits & everything):
        for operand in operands:
            for _cost, subs in producer_table(operand, ctx).priced:
                for sub in subs:
                    keys = len(ctx._operand_key_cache)
                    triples = len(search._residual_info)
                    leaf = search._leaf_estimate(sub, free, counted)
                    assert len(ctx._operand_key_cache) == keys
                    assert len(search._residual_info) == triples
                    residual = search._residual_operand_uncached(sub,
                                                                 free)
                    real, raw = search._residual_triple(residual)[1:3]
                    assert leaf == search._estimate_residual(
                        residual, real, raw, free, counted, 0)
