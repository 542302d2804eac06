"""Property tests for the admissible matching bound (`repro.vectorizer.bounds`).

Three contracts, hypothesis-sampled along *real* search trajectories
(states reachable by ``expand()`` from the root):

* **Admissibility** — ``lb(state) <= optimal completion cost - g``,
  checked against a memoized exhaustive completion of the state (the
  assertion only fires when the bounded oracle truly exhausted the
  subtree, so a budget stop can never mask a violation, only skip one
  sample).
* **Heuristic dominance** — ``h(state) >= lb(state)``: the Figure 7
  estimate never drops below the bound (DESIGN.md §16.5).  No search
  decision rests on it, since only the exact pass reads the bound; it
  pins the relative strength of the two estimates.
* **Consistency** — ``lb(parent) <= delta + lb(child)`` across every
  transition (pack application *and* scalar fix).  This is the sound
  form of "monotone under pack application": the *remaining* provable
  work never shrinks faster than the cost actually paid.  The literal
  form ``lb(child) <= lb(parent)`` is deliberately not asserted — a
  pack application can *register* new operands, growing the charged
  core, so the raw bound may legitimately increase while ``g + lb``
  stays a valid total bound along the path.

The oracle kernels are the tiny blocks from ``test_optimal_oracle``
(where exhaustion is feasible); targets cover both ISA families.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.frontend import compile_kernel
from repro.patterns.canonicalize import canonicalize_function
from repro.target import get_target
from repro.vectorizer import (
    VectorizationContext,
    VectorizerConfig,
    clone_function,
)
from repro.vectorizer.beam import BeamSearch

from tests.test_optimal_oracle import TINY_KERNELS

EPS = 1e-9
ORACLE_KERNELS = ("pair_add", "hadd", "addsub")
TARGETS = ("sse4", "avx2", "neon128")

_search_cache = {}


def _search_for(kernel, target):
    """One search per (kernel, target) — construction dominates the
    per-example cost, and searches are stateless across reads."""
    key = (kernel, target)
    search = _search_cache.get(key)
    if search is None:
        fn = clone_function(compile_kernel(TINY_KERNELS[kernel]))
        canonicalize_function(fn)
        config = VectorizerConfig(
            beam_width=8, max_producers_per_operand=6,
            max_match_combinations=1, max_transitions_per_state=10,
            seed_packs_per_value=1,
        )
        ctx = VectorizationContext(fn, get_target(target), config=config)
        search = BeamSearch(ctx)
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


def _optimal_completion(search, state, budget=20000):
    """(optimal completion total, exhausted) by bounded memoized DFS."""
    memo = {}
    best = [search._complete(state).g]
    remaining = [budget]

    def rec(s):
        if remaining[0] <= 0:
            return
        remaining[0] -= 1
        for child in search.expand(s):
            if child.g >= best[0]:
                continue
            if child.solved:
                best[0] = child.g
                continue
            key = child.identity()
            seen = memo.get(key)
            if seen is not None and seen <= child.g:
                continue
            memo[key] = child.g
            completed = search._complete(child)
            if completed.g < best[0]:
                best[0] = completed.g
            rec(child)

    rec(state)
    return best[0], remaining[0] > 0


trajectory = st.tuples(
    st.sampled_from(ORACLE_KERNELS),
    st.sampled_from(TARGETS),
    st.lists(st.integers(min_value=0, max_value=7), max_size=4),
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trajectory)
def test_bound_admissible_on_trajectory_states(sample):
    kernel, target, path = sample
    search = _search_for(kernel, target)
    state = _walk(search, path)
    if state.solved:
        return
    bound = search.lower_bound()
    lb = bound.bound(state)
    optimal, exhausted = _optimal_completion(search, state)
    if exhausted:
        assert lb <= (optimal - state.g) + EPS, (
            f"{kernel}/{target}: lb={lb} exceeds "
            f"optimal completion {optimal - state.g}"
        )
        # The integral-ceiled provable total obeys the same contract.
        assert bound.provable_total(state, state.g) <= optimal + EPS


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trajectory)
def test_heuristic_dominates_bound(sample):
    kernel, target, path = sample
    search = _search_for(kernel, target)
    state = _walk(search, path)
    if state.solved:
        return
    lb = search.lower_bound().bound(state)
    h = search.heuristic(state)
    assert h >= lb - EPS, (
        f"{kernel}/{target}: h={h} < lb={lb}"
    )


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trajectory)
def test_bound_consistent_across_transitions(sample):
    kernel, target, path = sample
    search = _search_for(kernel, target)
    state = _walk(search, path)
    if state.solved:
        return
    bound = search.lower_bound()
    lb_parent = bound.bound(state)
    for child in search.expand(state):
        delta = child.g - state.g
        lb_child = 0.0 if child.solved else bound.bound(child)
        assert lb_parent <= delta + lb_child + EPS, (
            f"{kernel}/{target}: lb(parent)="
            f"{lb_parent} > delta {delta} + lb(child) {lb_child}"
        )


def test_root_bound_positive_and_finite():
    """The root owes at least the stores: a positive, finite bound."""
    for target in TARGETS:
        search = _search_for("pair_add", target)
        root = search.initial_state()
        lb = search.lower_bound().bound(root)
        assert 0.0 < lb < float("inf")


def test_solved_states_bound_zero():
    """A solved state owes nothing (free core is empty)."""
    search = _search_for("pair_add", "sse4")
    solved = search._complete(search.initial_state())
    assert search.lower_bound().bound(solved) == 0.0


@pytest.mark.parametrize("target", TARGETS)
def test_bound_never_exceeds_all_scalar_completion(target):
    """Cheap corollary of admissibility that needs no oracle: the
    all-scalar completion is one particular completion."""
    for kernel in ORACLE_KERNELS:
        search = _search_for(kernel, target)
        root = search.initial_state()
        scalar_total = search._complete(root).g
        lb = search.lower_bound().bound(root)
        assert root.g + lb <= scalar_total + EPS
