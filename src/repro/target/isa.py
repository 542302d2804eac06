"""Target instruction descriptions and the offline build pipeline.

``build_instruction`` is the whole offline phase of the generator for one
instruction: parse the vendor pseudocode, symbolically evaluate and lift
it to a VIDL description, and canonicalize the per-lane operations into
the match patterns the online vectorizer consumes (§3–§4).  It imports
the generator (:mod:`repro.pseudocode`, :mod:`repro.vidl.lift`) when it
runs, so a compile that loads its targets from the artifact never does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.ir.types import Type
from repro.patterns.canonicalize import canonicalize_operation
from repro.patterns.match_table import OperationIndex
from repro.vidl.ast import InstDesc, Operation


@dataclass
class TargetInstruction:
    """One vector instruction: VIDL semantics plus matching metadata.

    ``intrinsic``/``header``/``imm_operand`` carry the real-intrinsic
    emission metadata from the spec entry (see
    :class:`repro.target.specs.SpecEntry`); they are ``None`` for
    model-only instructions the C emitter cannot render.
    """

    name: str
    desc: InstDesc
    match_ops: Tuple[Operation, ...]
    cost: float
    requires: FrozenSet[str]
    spec_text: str
    intrinsic: Optional[str] = None
    header: Optional[str] = None
    imm_operand: Optional[int] = None

    @property
    def is_simd(self) -> bool:
        return self.desc.is_simd

    @property
    def num_lanes(self) -> int:
        return self.desc.num_lanes

    def __repr__(self) -> str:
        kind = "simd" if self.is_simd else "non-simd"
        return (f"<TargetInstruction {self.name} ({kind}, "
                f"{self.num_lanes} lanes, cost {self.cost:g})>")


class TargetDesc:
    """An instruction set: what one compilation target may emit.

    ``family`` names the ISA family the target belongs to (``"x86"``,
    ``"neon"``); the C emitter keys its per-family conventions (vector
    types, load/store intrinsics) on it.
    """

    def __init__(self, name: str, extensions, instructions,
                 family: str = "x86"):
        self.name = name
        self.family = family
        self.extensions: FrozenSet[str] = frozenset(extensions)
        self.instructions: List[TargetInstruction] = list(instructions)
        self.by_name: Dict[str, TargetInstruction] = {
            inst.name: inst for inst in self.instructions
        }
        by_shape: Dict[Tuple[int, Type], List[TargetInstruction]] = {}
        for inst in self.instructions:
            key = (inst.desc.num_lanes, inst.desc.out_elem_type)
            by_shape.setdefault(key, []).append(inst)
        # Frozen to tuples: instructions_for_shape is called once per
        # distinct operand on the enumeration hot path and hands the
        # shared sequence out directly instead of copying.
        self._by_shape: Dict[Tuple[int, Type], Tuple[TargetInstruction,
                                                     ...]] = {
            key: tuple(insts) for key, insts in by_shape.items()
        }
        self._operation_index: Optional[OperationIndex] = None

    def get(self, name: str) -> TargetInstruction:
        return self.by_name[name]

    def instructions_for_shape(self, lanes: int,
                               elem_type: Type
                               ) -> Tuple[TargetInstruction, ...]:
        """All instructions producing ``lanes`` lanes of ``elem_type``.

        The returned tuple is the shared internal sequence — do not
        mutate (it is handed out without a copy on the hot path)."""
        return self._by_shape.get((lanes, elem_type), ())

    @property
    def vector_lane_counts(self) -> FrozenSet[int]:
        """Output widths (in lanes) this target can produce."""
        return frozenset(inst.num_lanes for inst in self.instructions)

    @property
    def operation_index(self) -> OperationIndex:
        """The distinct canonical lane operations, for the match table."""
        if self._operation_index is None:
            self._operation_index = OperationIndex(
                op for inst in self.instructions for op in inst.match_ops
            )
        return self._operation_index

    def __repr__(self) -> str:
        return (f"<TargetDesc {self.name}: "
                f"{len(self.instructions)} instructions>")


def build_instruction(name: str, text: str, requires,
                      inv_throughput: float,
                      canonicalize_patterns: bool = True,
                      intrinsic: Optional[str] = None,
                      header: Optional[str] = None,
                      imm_operand: Optional[int] = None
                      ) -> Optional[TargetInstruction]:
    """Run the offline pipeline for one pseudocode spec.

    Returns ``None`` when the spec cannot be lifted to VIDL (e.g. it
    leaves output lanes uninitialized) — such entries are simply not part
    of the generated vectorizer, mirroring VeGen skipping untranslatable
    intrinsics.
    """
    from repro.pseudocode import parse_spec
    from repro.vidl.lift import LiftError, lift_spec

    spec = parse_spec(text)
    try:
        desc = lift_spec(spec)
    except LiftError:
        return None
    match_ops = tuple(
        canonicalize_operation(lane_op.operation,
                               enabled=canonicalize_patterns)
        for lane_op in desc.lane_ops
    )
    return TargetInstruction(
        name=name,
        desc=desc,
        match_ops=match_ops,
        cost=inv_throughput * 2.0,
        requires=frozenset(requires),
        spec_text=text,
        intrinsic=intrinsic,
        header=header,
        imm_operand=imm_operand,
    )
