"""Vector packs (§4.4).

A pack is ``(v, [m1, ..., mk])``: a vector instruction plus one match per
output lane.  ``values(p)`` are the lane live-outs; ``operand_i(p)`` is
computed statically from the instruction's lane bindings — including
*don't-care* lanes for inputs the instruction never reads (Figure 6) and
consistency checks for input lanes consumed by several operations
(broadcast-style bindings).

Loads and stores are two special pack kinds whose lanes must be contiguous
memory accesses.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.ir.dag import DependenceGraph, contiguous_accesses
from repro.ir.instructions import Instruction, LoadInst, StoreInst
from repro.ir.types import Type
from repro.ir.values import Constant, Value, constants_equal
from repro.patterns.matcher import Match
from repro.target.isa import TargetInstruction
from repro.vidl.ast import DONT_CARE

#: One element of an operand vector.
OperandElement = Union[Value, object]  # Value | DONT_CARE
OperandVector = Tuple[OperandElement, ...]


class InvalidPack(ValueError):
    """Raised when matches cannot be combined into a consistent pack."""


def operand_key(operand: OperandVector) -> Tuple:
    """Hashable identity of an operand vector.

    Plain values key by bare ``id`` — the overwhelmingly common case on
    the enumeration hot path — while don't-cares and constants keep
    tagged tuples.  An ``int`` never compares equal to a tuple, so the
    mixed element shapes cannot collide across lane kinds."""
    return tuple(
        [id(el) if el.__class__ is not Constant and el is not DONT_CARE
         else (("dc",) if el is DONT_CARE
               else ("const", el.type, el.value))
         for el in operand]
    )


#: Sentinel for "key not computed yet" — distinct from any real key, so
#: the cache works even if a key were ever falsy/None.
_KEY_UNSET = object()


class Pack:
    """Base class for the three pack kinds."""

    __slots__ = ("_key_cache",)

    def __init__(self):
        # Per-instance init: a class-level default would be shared state
        # (and a plain None sentinel could alias a legitimate key).
        self._key_cache = _KEY_UNSET

    def key(self) -> Tuple:
        if self._key_cache is _KEY_UNSET:
            self._key_cache = self._compute_key()
        return self._key_cache

    def values(self) -> Tuple[Optional[Value], ...]:
        """Per-lane produced IR values (None = don't-care output lane)."""
        raise NotImplementedError

    def operands(self) -> List[OperandVector]:
        return []

    def _compute_key(self) -> Tuple:
        raise NotImplementedError

    @property
    def is_store(self) -> bool:
        return isinstance(self, StorePack)

    def num_lanes(self) -> int:
        return len(self.values())


def compute_pack_lanes(inst: TargetInstruction,
                       matches: Tuple[Optional[Match], ...]
                       ) -> Tuple[Tuple[Optional[Value], ...],
                                  List[OperandVector]]:
    """``(values, operands)`` of the compute pack ``(inst, matches)``.

    Raises :class:`InvalidPack` when the matches cannot form a pack;
    producer enumeration calls this directly to validate and price a
    pack without building the object."""
    # One pass builds the lane values and checks both lane invariants:
    # at least one real lane, and every scalar produced by exactly one
    # pack lane (a pack whose lanes repeat a live-out would compute the
    # same value twice and has no consistent lowering — codegen maps
    # value -> (pack, lane)).
    values: List[Optional[Value]] = []
    produced: List[int] = []
    for m in matches:
        if m is None:
            values.append(None)
        else:
            live_out = m.live_out
            values.append(live_out)
            produced.append(id(live_out))
    if not produced:
        raise InvalidPack(f"{inst.name}: all lanes are don't-care")
    if len(produced) > 1 and len(set(produced)) != len(produced):
        raise InvalidPack(
            f"{inst.name}: the same value is produced by two lanes"
        )
    # Driven by the desc's flat lane-consumer plan (built once per
    # instruction description): the single-consumer "simple" inputs
    # read their bound value directly, the "general" ones replicate the
    # per-lane consistency check of multi-consumer bindings.
    operands: List[OperandVector] = []
    for input_index, (kind, lanes_plan) in \
            enumerate(inst.desc.pack_plan()):
        if kind == "simple":
            operands.append(tuple([
                DONT_CARE if entry is None
                or (match := matches[entry[0]]) is None
                else match.live_ins[entry[1]]
                for entry in lanes_plan
            ]))
            continue
        general: List[OperandElement] = []
        for lane_index, consumers in enumerate(lanes_plan):
            chosen: Optional[Value] = None
            for out_lane, param_pos in consumers:
                match = matches[out_lane]
                if match is None:
                    continue
                value = match.live_ins[param_pos]
                if chosen is None:
                    chosen = value
                elif chosen is not value and \
                        not constants_equal(chosen, value):
                    raise InvalidPack(
                        f"{inst.name}: input lane "
                        f"x{input_index}[{lane_index}] bound to two "
                        f"different values"
                    )
            general.append(chosen if chosen is not None else DONT_CARE)
        operands.append(tuple(general))
    return tuple(values), operands


def compute_pack_key(inst: TargetInstruction,
                     values: Sequence[Optional[Value]],
                     operands: Sequence[OperandVector]) -> Tuple:
    """:meth:`Pack.key` of a compute pack, from its lanes alone."""
    return (
        "compute",
        inst.name,
        tuple(id(v) if v is not None else None for v in values),
        tuple(operand_key(op) for op in operands),
    )


class ComputePack(Pack):
    """A pack of matched operations lowered to one target instruction."""

    __slots__ = ("inst", "matches", "_values", "_operands")

    def __init__(self, inst: TargetInstruction,
                 matches: Sequence[Optional[Match]]):
        super().__init__()
        if len(matches) != inst.num_lanes:
            raise InvalidPack(
                f"{inst.name}: {len(matches)} matches for "
                f"{inst.num_lanes} lanes"
            )
        self.inst = inst
        self.matches = matches = tuple(matches)
        self._values, self._operands = compute_pack_lanes(inst, matches)

    def values(self) -> Tuple[Optional[Value], ...]:
        return self._values

    def operands(self) -> List[OperandVector]:
        return self._operands

    def covered_instructions(self) -> List[Instruction]:
        """All scalar instructions this pack's matches cover."""
        covered: List[Instruction] = []
        for match in self.matches:
            if match is not None:
                covered.extend(match.covered)
        return covered

    def _compute_key(self) -> Tuple:
        return compute_pack_key(self.inst, self._values, self._operands)

    def __repr__(self) -> str:
        names = [v.short_name() if v is not None else "_"
                 for v in self._values]
        return f"<ComputePack {self.inst.name} [{', '.join(names)}]>"


class LoadPack(Pack):
    """A vector load of contiguous elements."""

    __slots__ = ("loads", "base", "first_offset")

    def __init__(self, loads: Sequence[LoadInst]):
        super().__init__()
        location = contiguous_accesses(loads)
        if location is None:
            raise InvalidPack("loads are not contiguous")
        self.loads = tuple(loads)
        self.base, self.first_offset = location

    @property
    def elem_type(self) -> Type:
        return self.loads[0].type

    def values(self) -> Tuple[Optional[Value], ...]:
        return self.loads

    def _compute_key(self) -> Tuple:
        return ("load", tuple(id(l) for l in self.loads))

    def __repr__(self) -> str:
        return (
            f"<LoadPack {self.base.name}[{self.first_offset}..."
            f"{self.first_offset + len(self.loads) - 1}]>"
        )


class StorePack(Pack):
    """A vector store of contiguous elements."""

    __slots__ = ("stores", "base", "first_offset", "_operands")

    def __init__(self, stores: Sequence[StoreInst]):
        super().__init__()
        location = contiguous_accesses(stores)
        if location is None:
            raise InvalidPack("stores are not contiguous")
        self.stores = tuple(stores)
        self.base, self.first_offset = location
        # Precomputed so operands() returns stable tuple objects (the
        # context's id-keyed operand_key cache relies on identity).
        self._operands = [tuple(s.value for s in self.stores)]

    @property
    def elem_type(self) -> Type:
        return self.stores[0].value.type

    def values(self) -> Tuple[Optional[Value], ...]:
        # The stores themselves are the instructions this pack replaces.
        return self.stores

    def operands(self) -> List[OperandVector]:
        return self._operands

    def _compute_key(self) -> Tuple:
        return ("store", tuple(id(s) for s in self.stores))

    def __repr__(self) -> str:
        return (
            f"<StorePack {self.base.name}[{self.first_offset}..."
            f"{self.first_offset + len(self.stores) - 1}]>"
        )


def packs_independent(pack: Pack, dep_graph: DependenceGraph) -> bool:
    """A pack is legal only if its lane values are pairwise independent."""
    values = [v for v in pack.values() if v is not None]
    return dep_graph.independent(values)


def pack_depends_on(p1: Pack, p2: Pack,
                    dep_graph: DependenceGraph) -> bool:
    """§4.4: p1 depends on p2 if some value of p1 depends on one of p2."""
    for a in p1.values():
        if a is None:
            continue
        for b in p2.values():
            if b is None:
                continue
            if dep_graph.depends(a, b):
                return True
    return False
