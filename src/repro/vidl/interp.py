"""Interpreter for VIDL instruction descriptions.

Executes an :class:`InstDesc` on concrete lane vectors.  This is the
semantic definition the machine executor (``repro.machine.exec``) uses for
compute instructions, so the entire vectorizer correctness story reduces
to: scalar interpreter == VIDL interpreter composed over packs.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.bitvector.eval import evaluate_binary as evaluate_bv_binary
from repro.ir.interp import (
    evaluate_cast,
    evaluate_fcmp,
    evaluate_float_binop,
    evaluate_icmp,
)
from repro.ir.types import Type
from repro.utils.fp import float_from_bits, float_to_bits, round_to_width
from repro.utils.intmath import mask
from repro.vidl.ast import (
    DONT_CARE,
    InstDesc,
    OpConst,
    OpExpr,
    OpNode,
    OpParam,
)

_CAST_OPS = frozenset(
    {"sext", "zext", "trunc", "fpext", "fptrunc", "sitofp", "fptosi"}
)


class VIDLExecError(RuntimeError):
    """Raised when an instruction description cannot be executed."""


def execute_operation(operation, args: Sequence[object]):
    """Evaluate one scalar operation on concrete argument values."""
    if len(args) != len(operation.params):
        raise VIDLExecError(
            f"operation takes {len(operation.params)} args, got {len(args)}"
        )
    return _eval(operation.expr, list(args))


def execute_inst(desc: InstDesc, inputs: Sequence[Sequence[object]]
                 ) -> List[object]:
    """Execute an instruction on per-input lane vectors.

    Don't-care input lanes may be ``None`` or :data:`DONT_CARE`.  Integer
    lanes are unsigned ints; float lanes are Python floats.
    """
    if len(inputs) != desc.num_inputs:
        raise VIDLExecError(
            f"{desc.name}: expected {desc.num_inputs} inputs, "
            f"got {len(inputs)}"
        )
    for i, (vin, data) in enumerate(zip(desc.inputs, inputs)):
        if len(data) != vin.lanes:
            raise VIDLExecError(
                f"{desc.name}: input {i} has {len(data)} lanes, "
                f"expected {vin.lanes}"
            )
    output: List[object] = []
    for lane_op in desc.lane_ops:
        args = []
        for ref in lane_op.bindings:
            value = inputs[ref.input_index][ref.lane_index]
            if value is None or value is DONT_CARE:
                raise VIDLExecError(
                    f"{desc.name}: operation consumes don't-care lane "
                    f"{ref!r}"
                )
            args.append(value)
        output.append(execute_operation(lane_op.operation, args))
    return output


def _eval(expr: OpExpr, args: List[object]):
    if isinstance(expr, OpParam):
        value = args[expr.index]
        if expr.type.is_integer:
            return mask(int(value), expr.type.width)
        return value
    if isinstance(expr, OpConst):
        return expr.value
    assert isinstance(expr, OpNode)
    op = expr.opcode
    operands = [_eval(o, args) for o in expr.operands]
    if op == "select":
        return operands[1] if operands[0] else operands[2]
    if op == "icmp":
        return evaluate_icmp(expr.attr, operands[0], operands[1],
                             expr.operands[0].type.width)
    if op == "fcmp":
        return evaluate_fcmp(expr.attr, operands[0], operands[1])
    if op == "fneg":
        return round_to_width(-operands[0], expr.type.width)
    if op in _CAST_OPS:
        return evaluate_cast(op, operands[0], expr.operands[0].type,
                             expr.type)
    if expr.type.is_integer:
        # SMT-LIB bitvector semantics (shifts clamp rather than trap),
        # matching the formulas the description was lifted from.
        return evaluate_bv_binary(op, operands[0], operands[1],
                                  expr.type.width)
    return evaluate_float_binop(op, operands[0], operands[1],
                                expr.type.width)


# -- register payload <-> lane vector helpers ----------------------------------


def lanes_from_bits(bits: int, lanes: int, elem_type: Type) -> List[object]:
    """Split a register payload into lane values (LSB lane first)."""
    width = elem_type.width
    out: List[object] = []
    for i in range(lanes):
        lane_bits = (bits >> (i * width)) & ((1 << width) - 1)
        if elem_type.is_float:
            out.append(float_from_bits(lane_bits, width))
        else:
            out.append(lane_bits)
    return out


def bits_from_lanes(values: Sequence[object], elem_type: Type) -> int:
    """Pack lane values into an unsigned register payload."""
    width = elem_type.width
    bits = 0
    for i, value in enumerate(values):
        if elem_type.is_float:
            lane_bits = float_to_bits(float(value), width)
        else:
            lane_bits = mask(int(value), width)
        bits |= lane_bits << (i * width)
    return bits
