"""The Vector Instruction Description Language (VIDL), per Figure 5.

A VIDL instruction description models a target vector instruction as::

    inst ::= (x1 : vl1 x sz1, ..., xn : vln x szn) -> [res1, ..., resm]
    res  ::= opn(lane1, ..., lanek)
    opn  ::= (x1 : sz1, ..., xk : szk) -> expr

i.e. a list of scalar *operations* (one per output lane), each with a
*lane binding* saying which input lanes feed its parameters.  VIDL only
allows selecting input lanes with constant indices, which is what makes
``operand_i(pack)`` statically computable (§4.4).

Operation expressions reuse the scalar IR's type objects and opcode names
so that pattern generation (``repro.patterns``) is a direct structural
walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.types import Type

#: Sentinel for don't-care operand lanes (Figure 6 / §4.4).  Defined
#: here, not in the interpreter, because the compile-time search and
#: codegen mark don't-care lanes without ever executing VIDL.
DONT_CARE = object()


# -- operation expressions -----------------------------------------------------


class OpExpr:
    """Base class for operation expression nodes.

    Nodes are immutable; :meth:`key` returns a hashable structural key used
    for operation identity (the match table is keyed on it, §4.3).
    """

    __slots__ = ("type",)

    def __init__(self, ty: Type):
        self.type = ty

    def key(self) -> Tuple:
        raise NotImplementedError

    def children(self) -> Tuple["OpExpr", ...]:
        return ()

    def __repr__(self) -> str:
        from repro.vidl.printer import format_op_expr

        return format_op_expr(self)


class OpParam(OpExpr):
    """A leaf parameter of the operation (``x1 : 16`` in Figure 4b)."""

    __slots__ = ("index",)

    def __init__(self, index: int, ty: Type):
        super().__init__(ty)
        self.index = index

    def key(self):
        return ("param", self.index, self.type)


class OpConst(OpExpr):
    """An embedded constant (e.g. saturation bounds)."""

    __slots__ = ("value",)

    def __init__(self, value, ty: Type):
        super().__init__(ty)
        self.value = value

    def key(self):
        return ("const", self.value, self.type)


class OpNode(OpExpr):
    """An operator application; ``opcode`` uses scalar-IR opcode names.

    ``attr`` carries the comparison predicate for icmp/fcmp nodes and is
    None otherwise.
    """

    __slots__ = ("opcode", "operands", "attr")

    def __init__(self, opcode: str, operands: Sequence[OpExpr], ty: Type,
                 attr: Optional[str] = None):
        super().__init__(ty)
        self.opcode = opcode
        self.operands = tuple(operands)
        self.attr = attr

    def key(self):
        return (
            ("node", self.opcode, self.attr, self.type)
            + tuple(o.key() for o in self.operands)
        )

    def children(self):
        return self.operands


@dataclass(frozen=True)
class Operation:
    """A scalar operation: parameter types plus a single expression."""

    params: Tuple[Type, ...]
    expr: OpExpr

    def key(self) -> Tuple:
        return (self.params, self.expr.key())

    @property
    def result_type(self) -> Type:
        return self.expr.type

    def __repr__(self) -> str:
        from repro.vidl.printer import format_operation

        return format_operation(self)


# -- lane bindings ---------------------------------------------------------------


@dataclass(frozen=True)
class LaneRef:
    """A constant reference to one lane of one input register."""

    input_index: int
    lane_index: int

    def __repr__(self) -> str:
        return f"x{self.input_index}[{self.lane_index}]"


@dataclass(frozen=True)
class LaneOp:
    """One output lane: an operation plus the input lanes its parameters
    bind to (``bindings[i]`` feeds parameter ``i``)."""

    operation: Operation
    bindings: Tuple[LaneRef, ...]

    def __post_init__(self):
        if len(self.bindings) != len(self.operation.params):
            raise ValueError(
                f"lane op binds {len(self.bindings)} lanes but operation "
                f"has {len(self.operation.params)} parameters"
            )


@dataclass(frozen=True)
class VectorInput:
    """Shape of one input register: ``vl x sz``."""

    lanes: int
    elem_type: Type

    def __repr__(self) -> str:
        return f"{self.lanes} x {self.elem_type}"


class InstDesc:
    """A complete VIDL instruction description."""

    def __init__(self, name: str, inputs: Sequence[VectorInput],
                 lane_ops: Sequence[LaneOp], out_elem_type: Type):
        self.name = name
        self.inputs = tuple(inputs)
        self.lane_ops = tuple(lane_ops)
        self.out_elem_type = out_elem_type
        self._consumer_table: Optional[Dict] = None
        self._pack_plan: Optional[Tuple] = None
        self._validate()

    @property
    def num_lanes(self) -> int:
        return len(self.lane_ops)

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    def _validate(self) -> None:
        for lane_idx, lane_op in enumerate(self.lane_ops):
            if lane_op.operation.result_type != self.out_elem_type:
                raise ValueError(
                    f"{self.name}: lane {lane_idx} produces "
                    f"{lane_op.operation.result_type}, expected "
                    f"{self.out_elem_type}"
                )
            for param_idx, ref in enumerate(lane_op.bindings):
                if not 0 <= ref.input_index < len(self.inputs):
                    raise ValueError(
                        f"{self.name}: lane {lane_idx} binds to missing "
                        f"input {ref.input_index}"
                    )
                vin = self.inputs[ref.input_index]
                if not 0 <= ref.lane_index < vin.lanes:
                    raise ValueError(
                        f"{self.name}: lane {lane_idx} binds to lane "
                        f"{ref.lane_index} of input {ref.input_index} "
                        f"which has only {vin.lanes} lanes"
                    )
                param_ty = lane_op.operation.params[param_idx]
                if param_ty != vin.elem_type:
                    raise ValueError(
                        f"{self.name}: lane {lane_idx} param {param_idx} "
                        f"has type {param_ty} but binds a lane of type "
                        f"{vin.elem_type}"
                    )

    def distinct_operations(self) -> List[Operation]:
        """The distinct operations used across lanes (first-seen order)."""
        seen: Dict[Tuple, Operation] = {}
        for lane_op in self.lane_ops:
            key = lane_op.operation.key()
            if key not in seen:
                seen[key] = lane_op.operation
        return list(seen.values())

    @property
    def is_simd(self) -> bool:
        """True when the instruction is plain SIMD: isomorphic lanes and
        purely elementwise lane bindings (the two SLP assumptions, §3)."""
        ops = {lane.operation.key() for lane in self.lane_ops}
        if len(ops) > 1:
            return False
        for lane_idx, lane_op in enumerate(self.lane_ops):
            for ref in lane_op.bindings:
                if ref.lane_index != lane_idx:
                    return False
        return True

    def consumed_lanes(self, input_index: int) -> List[bool]:
        """Which lanes of the given input are used by any operation.
        Unused lanes are don't-care lanes (vpmuldq, Figure 6)."""
        used = [False] * self.inputs[input_index].lanes
        for lane_op in self.lane_ops:
            for ref in lane_op.bindings:
                if ref.input_index == input_index:
                    used[ref.lane_index] = True
        return used

    def lane_consumers(self, input_index: int,
                       lane_index: int) -> List[Tuple[int, int]]:
        """All (output_lane, param_position) pairs consuming an input lane.

        This is the statically-computed inverse of the lane bindings: the
        generated ``operand_i(.)`` functions (Figure 4c) read off this map.
        The full inverse is built lazily on first use — pack construction
        asks for every input lane of an instruction, so a per-query scan
        over all bindings is quadratic in the lane count.
        """
        table = self._consumer_table
        if table is None:
            table = {}
            for out_lane, lane_op in enumerate(self.lane_ops):
                for param_pos, ref in enumerate(lane_op.bindings):
                    table.setdefault(
                        (ref.input_index, ref.lane_index), []
                    ).append((out_lane, param_pos))
            self._consumer_table = table
        return table.get((input_index, lane_index), [])

    def pack_plan(self) -> Tuple:
        """The full lane-consumer inverse as a flat per-input plan.

        One entry per input: ``('simple', ((out_lane, param_pos) |
        None, ...))`` when every lane has at most one consumer (the
        overwhelmingly common elementwise case — no consistency check is
        needed, so pack construction reads the bound value directly), or
        ``('general', (consumer_list, ...))`` with the per-lane consumer
        lists otherwise.  Built once per instruction description and
        cached: pack construction is the hottest allocation site of the
        whole vectorizer, and the per-lane ``lane_consumers`` calls it
        replaces were ~40% of ComputePack construction time."""
        plan = self._pack_plan
        if plan is None:
            entries = []
            for input_index, vin in enumerate(self.inputs):
                consumers = [
                    self.lane_consumers(input_index, lane_index)
                    for lane_index in range(vin.lanes)
                ]
                if all(len(c) <= 1 for c in consumers):
                    entries.append((
                        "simple",
                        tuple(c[0] if c else None for c in consumers),
                    ))
                else:
                    entries.append(("general", tuple(consumers)))
            plan = tuple(entries)
            self._pack_plan = plan
        return plan

    def __repr__(self) -> str:
        from repro.vidl.printer import format_inst_desc

        return format_inst_desc(self)
