"""Tests for VIDL: lifting, lane bindings, don't-care lanes, interpreter,
and the paper's running example (Figure 4)."""

import random

import pytest

from repro.ir.types import F64, I16, I32, I64
from repro.pseudocode import parse_spec, run_spec
from repro.vidl import (
    InstDesc,
    LaneOp,
    LaneRef,
    LiftError,
    VIDLExecError,
    VectorInput,
    bits_from_lanes,
    execute_inst,
    execute_operation,
    format_inst_desc,
    lanes_from_bits,
    lift_spec,
)

PMADDWD = """
pmaddwd(a: 4 x s16, b: 4 x s16) -> 2 x s32
FOR j := 0 to 1
    i := j*32
    dst[i+31:i] := a[i+15:i]*b[i+15:i] + a[i+31:i+16]*b[i+31:i+16]
ENDFOR
"""


class TestLifting:
    def test_pmaddwd_matches_figure_4b(self):
        desc = lift_spec(parse_spec(PMADDWD))
        assert desc.num_lanes == 2
        assert desc.num_inputs == 2
        assert desc.inputs[0] == VectorInput(4, I16)
        assert desc.out_elem_type == I32
        # Both lanes use the same multiply-add operation.
        ops = desc.distinct_operations()
        assert len(ops) == 1
        # Lane bindings: lane 0 consumes input lanes 0/1, lane 1 lanes 2/3.
        lanes_used = {ref.lane_index for ref in desc.lane_ops[0].bindings}
        assert lanes_used == {0, 1}
        lanes_used = {ref.lane_index for ref in desc.lane_ops[1].bindings}
        assert lanes_used == {2, 3}

    def test_pmaddwd_not_simd(self):
        desc = lift_spec(parse_spec(PMADDWD))
        assert not desc.is_simd

    def test_simple_add_is_simd(self):
        desc = lift_spec(parse_spec("""
padd(a: 4 x s32, b: 4 x s32) -> 4 x s32
FOR j := 0 to 3
    i := j*32
    dst[i+31:i] := a[i+31:i] + b[i+31:i]
ENDFOR
"""))
        assert desc.is_simd

    def test_dont_care_lanes(self):
        desc = lift_spec(parse_spec("""
pmuldq(a: 4 x s32, b: 4 x s32) -> 2 x s64
FOR j := 0 to 1
    i := j*64
    dst[i+63:i] := a[i+31:i] * b[i+31:i]
ENDFOR
"""))
        # Only the even input lanes are consumed (Figure 6).
        assert desc.consumed_lanes(0) == [True, False, True, False]

    def test_lane_consumers_inverse_map(self):
        desc = lift_spec(parse_spec(PMADDWD))
        consumers = desc.lane_consumers(0, 2)
        assert consumers and all(out_lane == 1 for out_lane, _ in consumers)

    def test_unassigned_output_rejected(self):
        with pytest.raises(LiftError):
            lift_spec(parse_spec("""
bad(a: 2 x s16) -> 2 x s16
dst[15:0] := a[15:0]
"""))

    def test_addsub_two_operations(self):
        desc = lift_spec(parse_spec("""
addsubpd(a: 2 x f64, b: 2 x f64) -> 2 x f64
dst[63:0] := a[63:0] - b[63:0]
dst[127:64] := a[127:64] + b[127:64]
"""))
        ops = desc.distinct_operations()
        assert len(ops) == 2
        opcodes = {op.expr.opcode for op in ops}
        assert opcodes == {"fadd", "fsub"}

    def test_format_is_readable(self):
        text = format_inst_desc(lift_spec(parse_spec(PMADDWD)))
        assert "pmaddwd" in text and "sext32" in text


class TestValidation:
    """Typechecking inside InstDesc construction."""

    def _madd_op(self):
        desc = lift_spec(parse_spec(PMADDWD))
        return desc.lane_ops[0].operation

    def test_binding_count_checked(self):
        op = self._madd_op()
        with pytest.raises(ValueError):
            LaneOp(op, (LaneRef(0, 0),))

    def test_input_bounds_checked(self):
        op = self._madd_op()
        lane = LaneOp(op, (LaneRef(0, 9), LaneRef(1, 0), LaneRef(0, 1),
                           LaneRef(1, 1)))
        with pytest.raises(ValueError):
            InstDesc("x", [VectorInput(4, I16), VectorInput(4, I16)],
                     [lane, lane], I32)

    def test_result_type_checked(self):
        op = self._madd_op()
        lane = LaneOp(op, (LaneRef(0, 0), LaneRef(1, 0), LaneRef(0, 1),
                           LaneRef(1, 1)))
        with pytest.raises(ValueError):
            InstDesc("x", [VectorInput(4, I16), VectorInput(4, I16)],
                     [lane, lane], I64)


class TestInterp:
    def test_pmaddwd_execution(self):
        desc = lift_spec(parse_spec(PMADDWD))
        out = execute_inst(desc, [[1, 2, 3, 4], [5, 6, 7, 8]])
        assert out == [1 * 5 + 2 * 6, 3 * 7 + 4 * 8]

    def test_dont_care_input_allowed_when_unused(self):
        desc = lift_spec(parse_spec("""
pmuldq(a: 4 x s32, b: 4 x s32) -> 2 x s64
FOR j := 0 to 1
    i := j*64
    dst[i+63:i] := a[i+31:i] * b[i+31:i]
ENDFOR
"""))
        out = execute_inst(desc, [[3, None, 5, None], [7, None, 11, None]])
        assert out == [21, 55]

    def test_consumed_dont_care_raises(self):
        desc = lift_spec(parse_spec(PMADDWD))
        with pytest.raises(VIDLExecError):
            execute_inst(desc, [[1, None, 3, 4], [5, 6, 7, 8]])

    def test_lane_count_checked(self):
        desc = lift_spec(parse_spec(PMADDWD))
        with pytest.raises(VIDLExecError):
            execute_inst(desc, [[1, 2], [5, 6, 7, 8]])

    def test_lanes_bits_roundtrip(self):
        rng = random.Random(3)
        for _ in range(20):
            bits = rng.getrandbits(64)
            lanes = lanes_from_bits(bits, 4, I16)
            assert bits_from_lanes(lanes, I16) == bits

    def test_float_lane_conversion(self):
        lanes = [1.5, -2.25]
        bits = bits_from_lanes(lanes, F64)
        assert lanes_from_bits(bits, 2, F64) == lanes

    def test_execute_operation_direct(self):
        desc = lift_spec(parse_spec(PMADDWD))
        op = desc.lane_ops[0].operation
        assert execute_operation(op, [2, 3, 4, 5]) == 2 * 3 + 4 * 5

    def test_matches_pseudocode_on_random_inputs(self):
        spec = parse_spec(PMADDWD)
        desc = lift_spec(spec)
        rng = random.Random(11)
        for _ in range(100):
            a = rng.getrandbits(64)
            b = rng.getrandbits(64)
            expected = run_spec(spec, {"a": a, "b": b})
            lanes = execute_inst(
                desc,
                [lanes_from_bits(a, 4, I16), lanes_from_bits(b, 4, I16)],
            )
            assert bits_from_lanes(lanes, I32) == expected
