"""Tests for the exhaustive (`exact`) mode.

``VectorizerConfig(exact=True)`` appends an incumbent branch-and-bound
pass seeded with the beam's solved state, so its final cost is never
worse than the beam's anywhere, and on the tiny oracle kernels (where
exhaustion is cheap) it equals ``optimal_cost`` exactly.
"""

import pytest

from repro.kernels import all_kernels
from repro.obs import Counters
from repro.obs.counters import COUNTER_NAMES
from repro.session import VectorizationSession
from repro.vectorizer.context import VectorizerConfig

from tests.test_optimal_oracle import TINY_KERNELS

ALL_TARGETS = ("sse4", "avx2", "avx512_vnni")


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

    def test_exact_counter_names_are_registered(self):
        for name in ("beam.exact_runs", "beam.exact_nodes",
                     "beam.exact_proved", "beam.exact_budget_exhausted",
                     "beam.exact_improvements", "beam.bound_evals",
                     "beam.bound_prunes", "beam.bound_dominance_cuts"):
            assert name in COUNTER_NAMES, name
