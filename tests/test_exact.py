"""Tests for the exhaustive (`exact`) mode.

``VectorizerConfig(exact=True)`` appends an incumbent branch-and-bound
pass seeded with the beam's solved state, so its final cost is never
worse than the beam's anywhere, and on the tiny oracle kernels (where
exhaustion is cheap) it equals ``optimal_cost`` exactly.
"""

import hashlib
import json
import os
from unittest import mock

import pytest

from repro.kernels import all_kernels
from repro.obs import Counters
from repro.obs.bench import program_digest
from repro.obs.counters import COUNTER_NAMES
from repro.session import VectorizationSession
from repro.vectorizer.beam import BeamSearch
from repro.vectorizer.context import VectorizerConfig

from tests.test_optimal_oracle import TINY_KERNELS

ALL_TARGETS = ("sse4", "avx2", "avx512_vnni")

TRAVERSAL_GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                                "exact_traversal.json")

#: (kernel, target, node budget) cells pinned by the traversal golden:
#: the 33k-node isel_abs_ps/avx2 proof, two small proofs, and two
#: budget-exhausted cells of the bench's ``prove`` workload.
TRAVERSAL_CELLS = (
    ("isel_abs_ps", "avx2", 50000),
    ("complex_mul", "avx2", 50000),
    ("isel_mul_addsub_pd", "neon128", 50000),
    ("dsp_fft4", "sse4", 5000),
    ("dsp_chroma", "avx512_vnni", 5000),
)


def _run(name, target, **config_kwargs):
    kernels = all_kernels()
    width = config_kwargs.setdefault("beam_width", 2)
    session = VectorizationSession(
        target=target, beam_width=width,
        config=VectorizerConfig(**config_kwargs),
    )
    counters = Counters()
    result = session.vectorize(kernels[name], counters=counters)
    return result, counters


# -- exact mode: never worse, optimal where provable -------------------


class TestExactMode:
    def test_exact_cost_never_worse_than_beam(self):
        """Exhaustion is seeded with the beam's incumbent, so its cost
        is bounded by the beam's even when the node budget stops the
        proof; checked across kernels and targets under a small budget
        to keep the matrix fast."""
        kernels = all_kernels()
        subset = ["complex_mul", "dsp_fft4", "dsp_chroma", "dotprod",
                  "isel_hadd_i16", "isel_pmaddwd", "opencv_int32x8",
                  "tvm_dot"]
        subset = [n for n in subset if n in kernels]
        violations = []
        for target in ALL_TARGETS:
            for name in subset:
                beam, _ = _run(name, target, beam_width=4)
                exact, counters = _run(name, target, beam_width=4,
                                       exact=True,
                                       exact_node_budget=5000)
                assert counters.get("beam.exact_runs") == 1
                if exact.cost.total > beam.cost.total + 1e-9:
                    violations.append(
                        f"{name}/{target}: exact {exact.cost.total} > "
                        f"beam {beam.cost.total}"
                    )
        assert not violations, "\n".join(violations)

    @pytest.mark.parametrize("name", ["pair_add", "hadd", "addsub"])
    def test_exact_matches_optimal_cost_on_tiny_kernels(self, name):
        """On the oracle kernels, the exact pass runs to exhaustion and
        must agree with ``optimal_cost`` to float equality: both now
        share one transition system and one cost-model path."""
        from tests.test_optimal_oracle import _context
        from repro.vectorizer.beam import select_packs
        from repro.vectorizer.optimal import optimal_cost

        optimum = optimal_cost(_context(TINY_KERNELS[name]))
        ctx = _context(TINY_KERNELS[name])
        ctx.config.exact = True
        counters = Counters()
        ctx.counters = counters
        _, cost = select_packs(ctx)
        assert counters.get("beam.exact_proved") == 1
        assert cost == pytest.approx(optimum)

    def test_budget_exhaustion_is_reported_not_silent(self):
        _, counters = _run("dsp_idct4", "sse4", beam_width=4,
                           exact=True, exact_node_budget=50)
        assert counters.get("beam.exact_budget_exhausted") == 1
        assert counters.get("beam.exact_proved") == 0

    def test_bound_proves_isel_abs_ps_within_probe_budget(self):
        """The point of the admissible bound: ``g + lb`` pruning proves
        isel_abs_ps optimal inside the bench's 50k-node gap budget."""
        _, counters = _run("isel_abs_ps", "sse4", beam_width=8,
                           exact=True, exact_node_budget=50000)
        assert counters.get("beam.exact_proved") == 1
        assert counters.get("beam.bound_prunes") > 0

    def test_re_derived_children_outnumber_entered_nodes(self):
        """Most exact-pass children are states the pass already entered
        (scalar fixes commute), and the identity memo drops them before
        the bound prices them."""
        _, counters = _run("dsp_fft4", "sse4", beam_width=8, exact=True,
                           exact_node_budget=5000)
        assert counters.get("beam.exact_nodes") == 5000
        assert counters.get("beam.exact_tt_hits") > \
            counters.get("beam.exact_nodes")

    def test_exact_counter_names_are_registered(self):
        for name in ("beam.exact_runs", "beam.exact_nodes",
                     "beam.exact_tt_hits", "beam.exact_proved",
                     "beam.exact_budget_exhausted",
                     "beam.exact_improvements", "beam.bound_evals",
                     "beam.bound_prunes", "beam.bound_dominance_cuts"):
            assert name in COUNTER_NAMES, name


# -- the exact traversal, pinned ---------------------------------------


def trace_exact_cell(name, target, budget):
    """One golden row: the exact pass's outcome plus a digest of the
    ``(V, S, F, g)`` of every state passed to
    ``BeamSearch._scalar_completion``, in call order, at beam width 8
    (the bench's width).

    The beam completes its survivors and rollouts through it and the
    exact pass completes every node it enters, so the digest pins which
    states the search visits and in what order."""
    hasher = hashlib.sha256()
    original = BeamSearch._scalar_completion

    def recording(self, state):
        hasher.update(f"{state.operand_mask},{state.scalar_bits},"
                      f"{state.free_bits},{state.g!r};".encode())
        return original(self, state)

    with mock.patch.object(BeamSearch, "_scalar_completion", recording):
        result, counters = _run(name, target, beam_width=8, exact=True,
                                exact_node_budget=budget)
    return {
        "kernel": name,
        "target": target,
        "node_budget": budget,
        "exact_nodes": counters.get("beam.exact_nodes"),
        "exact_proved": counters.get("beam.exact_proved"),
        "cost": result.cost.total,
        "program_sha256": program_digest(result.program),
        "completion_trace_sha256": hasher.hexdigest(),
    }


class TestTraversalGolden:
    """The exact pass enters the same states in the same order as the
    committed golden records (``tests/golden/exact_traversal.json``).

    Per-node optimizations of the branch-and-bound pass must keep the
    traversal itself unchanged; any change to which states are entered,
    their order, or their costs changes the trace digest."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(TRAVERSAL_GOLDEN) as handle:
            return {(row["kernel"], row["target"]): row
                    for row in json.load(handle)}

    @pytest.mark.parametrize("name,target,budget", TRAVERSAL_CELLS)
    def test_traversal_matches_golden(self, golden, name, target,
                                      budget):
        assert trace_exact_cell(name, target, budget) == \
            golden[(name, target)]


if __name__ == "__main__":
    # Regenerate the traversal golden (only when the traversal is meant
    # to change): python -m tests.test_exact
    rows = [trace_exact_cell(*cell) for cell in TRAVERSAL_CELLS]
    with open(TRAVERSAL_GOLDEN, "w") as handle:
        json.dump(rows, handle, indent=2, sort_keys=True)
        handle.write("\n")
