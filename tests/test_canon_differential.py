"""Output-pinning tests for the worklist canonicalizer.

Golden files (``tests/golden/canon/*.ll``) captured from the seed
implementation's fixpoint canonicalizer pin the canonical IR of every
bundled kernel byte for byte; the worklist driver must reproduce them,
reach a fixpoint in one run, and leave no dead speculative instructions
behind.
"""

import os

import pytest

from repro.ir.printer import print_function
from repro.kernels import all_kernels
from repro.patterns.canonicalize import canonicalize_function
from repro.vectorizer import clone_function

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "canon")

KERNELS = all_kernels()

#: Kernels small enough to recanonicalize cheaply in a unit test.
SMALL_KERNELS = sorted(
    name for name, fn in KERNELS.items()
    if len(fn.entry.instructions) < 400
)


def _canonicalized_text(name):
    work = clone_function(KERNELS[name])
    canonicalize_function(work)
    work.assign_names()
    return print_function(work)


class TestGoldenCanonicalization:
    """Worklist canonicalizer output == seed fixpoint output, per kernel."""

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_matches_seed_golden(self, name):
        path = os.path.join(GOLDEN_DIR, name + ".ll")
        with open(path) as handle:
            golden = handle.read()
        assert _canonicalized_text(name) == golden

    def test_goldens_cover_every_kernel(self):
        files = {n[:-3] for n in os.listdir(GOLDEN_DIR)
                 if n.endswith(".ll")}
        assert files == set(KERNELS)


class TestWorklistDriver:
    def test_idempotent_after_worklist(self):
        for name in SMALL_KERNELS[:6]:
            work = clone_function(KERNELS[name])
            canonicalize_function(work)
            assert canonicalize_function(work) == 0


class TestNarrowLeak:
    """A failed speculative narrowing must not leave dead instructions
    behind (the seed built the partial tree directly into the block)."""

    def _trunc_of_unnarrowable_add(self):
        from repro.ir import (
            Function,
            I8,
            I16,
            I32,
            IRBuilder,
            pointer_to,
            verify_function,
        )

        fn = Function("narrow_fail", [("a", pointer_to(I8)),
                                      ("b", pointer_to(I32)),
                                      ("out", pointer_to(I16))])
        b = IRBuilder(fn)
        # LHS narrows (sext i8 -> i32 re-emitted at i16); RHS is a raw
        # i32 load, which _narrow_rec rejects -> whole narrow aborts
        # after speculatively building the LHS cast.
        lhs = b.sext(b.load(fn.args[0], 0), I32)
        rhs = b.load(fn.args[1], 0)
        total = b.add(lhs, rhs)
        b.store(b.trunc(total, I16), fn.args[2], 0)
        b.ret()
        verify_function(fn)
        return fn

    def test_failed_narrow_leaves_no_dead_instructions(self):
        from repro.ir import verify_function

        fn = self._trunc_of_unnarrowable_add()
        before = len(fn.entry.instructions)
        rewrites = canonicalize_function(fn)
        assert rewrites == 0
        assert len(fn.entry.instructions) == before
        verify_function(fn)

    def test_partial_narrow_leaves_operand_uses_clean(self):
        fn = self._trunc_of_unnarrowable_add()
        # The aborted speculative cast must have unregistered itself
        # from its operand's use list: the i8 load feeds exactly one
        # surviving user (the original sext).
        canonicalize_function(fn)
        from repro.ir.instructions import Opcode

        load8 = next(inst for inst in fn.entry
                     if inst.opcode == Opcode.LOAD)
        assert load8.type.width == 8
        assert len(load8.uses) == 1
