"""The pack search is freed by refcounting (DESIGN.md §11).

``select_packs`` runs with the cyclic garbage collector paused and
promises that the search's whole working set is gone before it turns
the collector back on: the search owns its estimator, bound provider
and memos, none of them refers back to the search, and the search-only
caches on the context are released.  One reference cycle anywhere in
that graph keeps the search alive until a collection finds it.  These
tests keep the collector off throughout, so nothing can clean up behind
the search, and check that no search object survives the call.
"""

import gc

import pytest

from repro.kernels import all_kernels
from repro.patterns.canonicalize import canonicalize_function
from repro.target import get_target
from repro.vectorizer import (
    VectorizationContext,
    VectorizerConfig,
    clone_function,
)
from repro.vectorizer.beam import BeamSearch, select_packs
from repro.vectorizer.bounds import MatchingLowerBound
from repro.vectorizer.slp import INFINITY

SEARCH_TYPES = (BeamSearch, MatchingLowerBound)


def _search_objects():
    return [obj for obj in gc.get_objects()
            if isinstance(obj, SEARCH_TYPES)]


def _context(exact):
    fn = clone_function(all_kernels()["dsp_sbc"])
    canonicalize_function(fn)
    config = VectorizerConfig(beam_width=2, exact=exact,
                              exact_node_budget=2000)
    return VectorizationContext(fn, get_target("sse4"), config=config)


@pytest.mark.parametrize("exact", [False, True], ids=["beam", "exact"])
def test_no_search_object_outlives_select_packs(exact):
    ctx = _context(exact)
    before = _search_objects()  # e.g. searches other tests cached
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        packs, cost = select_packs(ctx)
        leaked = [obj for obj in _search_objects()
                  if not any(obj is old for old in before)]
        still_paused = not gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()
    assert packs and cost < INFINITY
    # select_packs restores the collector's state, it never forces it on.
    assert still_paused
    assert not leaked, (
        f"{len(leaked)} search object(s) alive after select_packs "
        f"returned: {sorted({type(obj).__name__ for obj in leaked})}"
    )


def test_search_caches_released_from_context():
    ctx = _context(False)
    select_packs(ctx)
    assert not ctx._producer_cache
    assert not ctx._interned_operands
    assert not ctx._operand_key_cache
