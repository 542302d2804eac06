"""Dependence analysis over a straight-line function body.

VeGen's pack legality rule (§4.4) needs two queries:

* are the values in a candidate pack pairwise *independent*?
* does pack ``p1`` depend on pack ``p2`` (for cycle detection and
  scheduling)?

Both reduce to transitive dependence between instructions, which we compute
once per function as bitset closures (Python ints as bitsets), making each
query O(1).

Memory model: pointer arguments are assumed non-aliasing with each other
(the paper's kernels all use ``restrict`` arrays — see Figure 2a), and
offsets are compile-time constants, so aliasing between two accesses is
decidable exactly: same base and same offset.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.function import Function
from repro.ir.instructions import (
    Instruction,
    LoadInst,
    Opcode,
    StoreInst,
    pointer_base_and_offset,
)
from repro.ir.values import Value


class DependenceGraph:
    """Exact dependence information for one straight-line function."""

    def __init__(self, function: Function):
        self.function = function
        self.instructions: List[Instruction] = list(function.entry)
        self._index: Dict[int, int] = {
            id(inst): i for i, inst in enumerate(self.instructions)
        }
        self._direct: List[int] = [0] * len(self.instructions)
        self._closure: List[int] = [0] * len(self.instructions)
        # (base, offset) per memory access, resolved once at build time.
        # The graph is built after canonicalization and the function is
        # frozen for its lifetime, so callers on the packing hot paths
        # (load-pack recognition, the shuffle special cases) read this
        # instead of re-walking GEP chains.
        self._locations: Dict[int, Tuple[Optional[Value], int]] = {}
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        accesses: List[Tuple[int, Instruction]] = []
        for i, inst in enumerate(self.instructions):
            deps = 0
            for op in inst.operands:
                j = self._index.get(id(op))
                if j is not None:
                    deps |= 1 << j
            if inst.is_memory:
                self._locations[id(inst)] = _access_location(inst)
            if inst.is_memory or inst.opcode == Opcode.RET:
                deps |= self._memory_deps(i, inst, accesses)
            if inst.is_memory:
                accesses.append((i, inst))
            self._direct[i] = deps
            closure = deps
            remaining = deps
            while remaining:
                j = (remaining & -remaining).bit_length() - 1
                closure |= self._closure[j]
                remaining &= remaining - 1
            self._closure[i] = closure

    def _memory_deps(self, i: int, inst: Instruction,
                     accesses: List[Tuple[int, Instruction]]) -> int:
        deps = 0
        if inst.opcode == Opcode.RET:
            # The terminator is ordered after all stores.
            for j, prev in accesses:
                if isinstance(prev, StoreInst):
                    deps |= 1 << j
            return deps
        locations = self._locations
        base_a, off_a = locations[id(inst)]
        for j, prev in accesses:
            if inst.opcode == Opcode.LOAD and prev.opcode == Opcode.LOAD:
                continue  # loads never conflict
            base_b, off_b = locations[id(prev)]
            if base_a is None or base_b is None:
                deps |= 1 << j  # unresolvable: be conservative
            elif base_a is base_b and off_a == off_b:
                deps |= 1 << j
        return deps

    # -- queries ------------------------------------------------------------

    def index(self, inst: Instruction) -> int:
        return self._index[id(inst)]

    def contains(self, value: Value) -> bool:
        return id(value) in self._index

    def depends(self, a: Value, b: Value) -> bool:
        """True if instruction ``a`` (transitively) depends on ``b``.

        Values outside the block (arguments, constants) depend on nothing
        and nothing inside the block is reported as depending on them.
        """
        ia = self._index.get(id(a))
        ib = self._index.get(id(b))
        if ia is None or ib is None:
            return False
        return bool(self._closure[ia] & (1 << ib))

    def independent(self, values: Sequence[Value]) -> bool:
        """True if no value in the list depends on another in the list.

        One pass: a closure bitset never contains its own index (the
        block is a DAG), so "some value depends on another in the list"
        is exactly "the union of closures intersects the list's bits".
        """
        index = self._index
        closures = self._closure
        union = 0
        bits = 0
        for v in values:
            i = index.get(id(v))
            if i is not None:
                bits |= 1 << i
                union |= closures[i]
        return not (union & bits)

    def access_location(self, inst: Instruction
                        ) -> Tuple[Optional[Value], int]:
        """(base, element offset) of a memory access, from the build-time
        cache; falls back to resolving on the fly for out-of-block
        accesses (which cannot occur for packs over this function)."""
        cached = self._locations.get(id(inst))
        if cached is not None:
            return cached
        return _access_location(inst)

    def direct_dependences(self, inst: Instruction) -> List[Instruction]:
        i = self._index[id(inst)]
        result = []
        remaining = self._direct[i]
        while remaining:
            j = (remaining & -remaining).bit_length() - 1
            result.append(self.instructions[j])
            remaining &= remaining - 1
        return result


def _may_alias(a: Instruction, b: Instruction) -> bool:
    base_a, off_a = _access_location(a)
    base_b, off_b = _access_location(b)
    if base_a is None or base_b is None:
        return True  # unresolvable: be conservative
    if base_a is not base_b:
        return False  # distinct restrict arrays never alias
    return off_a == off_b


def _access_location(inst: Instruction):
    if isinstance(inst, LoadInst):
        return pointer_base_and_offset(inst.pointer)
    if isinstance(inst, StoreInst):
        return pointer_base_and_offset(inst.pointer)
    raise TypeError(f"not a memory access: {inst!r}")


def contiguous_accesses(
    accesses: Sequence[Instruction],
) -> Optional[Tuple[Value, int]]:
    """If the accesses touch consecutive elements of one buffer, return
    ``(base, first_offset)``; otherwise None.

    Used to recognise vector-load and vector-store packs (§4.4: "memory
    addresses must be contiguous").
    """
    locations = []
    for inst in accesses:
        base, offset = _access_location(inst)
        if base is None:
            return None
        locations.append((base, offset))
    base0, first = locations[0]
    for lane, (base, offset) in enumerate(locations):
        if base is not base0 or offset != first + lane:
            return None
    return base0, first
