"""Tests for the pseudocode language: lexer, parser, and the agreement
between the symbolic evaluator and the concrete interpreter (§6.1's
random-testing validation, as a property test)."""

import random

import pytest

from repro.bitvector import evaluate as bv_evaluate
from repro.pseudocode import (
    ForStmt,
    IfStmt,
    PseudocodeSemanticsError,
    PseudocodeSyntaxError,
    evaluate_spec,
    parse_spec,
    run_spec,
    tokenize,
)


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("for j := 0 to 3\nENDFOR")
        kinds = [(t.kind, t.text) for t in tokens]
        assert ("kw", "FOR") in kinds and ("kw", "ENDFOR") in kinds

    def test_hex_literals(self):
        tokens = tokenize("x := 0xFF")
        assert any(t.kind == "int" and t.text == "255" for t in tokens)

    def test_comments_stripped(self):
        tokens = tokenize("x := 1 // comment\n")
        assert all("comment" not in t.text for t in tokens)

    def test_error_on_garbage(self):
        with pytest.raises(PseudocodeSyntaxError):
            tokenize("x := @@@")


class TestParser:
    def test_signature(self):
        spec = parse_spec("""
f(a: 4 x s16, b: 2 x f64) -> 2 x s32
dst[31:0] := a[15:0]
dst[63:32] := a[31:16]
""")
        assert spec.name == "f"
        assert spec.params[0].lanes == 4
        assert spec.params[0].elem_width == 16
        assert spec.params[1].kind == "f"
        assert spec.output.lanes == 2

    def test_for_and_if(self):
        spec = parse_spec("""
f(a: 4 x s8) -> 4 x s8
FOR j := 0 to 3
    IF j % 2 == 0
        dst[j*8+7:j*8] := a[j*8+7:j*8]
    ELSE
        dst[j*8+7:j*8] := 0 - a[j*8+7:j*8]
    FI
ENDFOR
""")
        assert isinstance(spec.body[0], ForStmt)
        assert isinstance(spec.body[0].body[0], IfStmt)

    def test_line_continuation(self):
        spec = parse_spec("""
f(a: 2 x s16) -> 1 x s32
dst[31:0] := SignExtend32(a[15:0]) +
             SignExtend32(a[31:16])
""")
        assert len(spec.body) == 1

    def test_define_function(self):
        spec = parse_spec("""
f(a: 1 x s16) -> 1 x s16
DEFINE Double(x) {
    RETURN x + x
}
dst[15:0] := Double(a[15:0])
""")
        assert "Double" in spec.functions
        assert run_spec(spec, {"a": 3}) == 6

    def test_missing_endfor(self):
        with pytest.raises(PseudocodeSyntaxError):
            parse_spec("""
f(a: 1 x s8) -> 1 x s8
FOR j := 0 to 1
    dst[7:0] := a[7:0]
""")


class TestConcreteInterp:
    def test_wraparound_add(self):
        spec = parse_spec("""
f(a: 1 x u8, b: 1 x u8) -> 1 x u8
dst[7:0] := a[7:0] + b[7:0]
""")
        assert run_spec(spec, {"a": 200, "b": 100}) == 44

    def test_widening_then_slice_assignment(self):
        spec = parse_spec("""
f(a: 1 x s16, b: 1 x s16) -> 1 x s32
dst[31:0] := a[15:0] * b[15:0]
""")
        # -3 * 5 = -15 at full precision.
        assert run_spec(spec, {"a": 0xFFFD, "b": 5}) == 0xFFFFFFF1

    def test_saturate(self):
        spec = parse_spec("""
f(a: 2 x s32) -> 2 x s16
dst[15:0] := Saturate16(a[31:0])
dst[31:16] := Saturate16(a[63:32])
""")
        inputs = (100000 & 0xFFFFFFFF) | ((-100000 & 0xFFFFFFFF) << 32)
        out = run_spec(spec, {"a": inputs})
        assert out & 0xFFFF == 32767
        assert (out >> 16) & 0xFFFF == 0x8000

    def test_unsigned_saturate_of_negative(self):
        spec = parse_spec("""
f(a: 1 x u8, b: 1 x u8) -> 1 x u8
dst[7:0] := SaturateU8(a[7:0] - b[7:0])
""")
        assert run_spec(spec, {"a": 3, "b": 10}) == 0

    def test_min_max_abs(self):
        spec = parse_spec("""
f(a: 1 x s16, b: 1 x s16) -> 1 x s16
dst[15:0] := MIN(ABS(a[15:0]), MAX(b[15:0], 0))
""")
        assert run_spec(spec, {"a": 0x8001, "b": 5}) == 5  # |−32767| vs 5

    def test_select_builtin(self):
        spec = parse_spec("""
f(c: 2 x u1, a: 2 x s16, b: 2 x s16) -> 2 x s16
FOR j := 0 to 1
    dst[j*16+15:j*16] := Select(c[j:j], a[j*16+15:j*16], b[j*16+15:j*16])
ENDFOR
""")
        out = run_spec(spec, {"c": 0b10, "a": 0x0002_0001,
                              "b": 0x0004_0003})
        assert out == 0x0002_0003

    def test_float_lanes(self):
        from repro.utils.fp import float_to_bits, float_from_bits

        spec = parse_spec("""
f(a: 2 x f64, b: 2 x f64) -> 2 x f64
dst[63:0] := a[63:0] * b[63:0]
dst[127:64] := a[127:64] + b[127:64]
""")
        a = float_to_bits(1.5, 64) | (float_to_bits(2.0, 64) << 64)
        b = float_to_bits(4.0, 64) | (float_to_bits(0.25, 64) << 64)
        out = run_spec(spec, {"a": a, "b": b})
        assert float_from_bits(out & (2 ** 64 - 1), 64) == 6.0
        assert float_from_bits(out >> 64, 64) == 2.25

    def test_variable_shift(self):
        spec = parse_spec("""
f(a: 1 x s32, b: 1 x s32) -> 1 x s32
dst[31:0] := a[31:0] >> b[31:0]
""")
        assert run_spec(spec, {"a": 0xFFFFFFF0, "b": 2}) == 0xFFFFFFFC

    def test_missing_input_raises(self):
        spec = parse_spec("""
f(a: 1 x s8) -> 1 x s8
dst[7:0] := a[7:0]
""")
        with pytest.raises(PseudocodeSemanticsError):
            run_spec(spec, {})


class TestSymbolicAgainstConcrete:
    """The §6.1 validation: for every spec shape we care about, symbolic
    evaluation followed by concrete bitvector evaluation must equal the
    direct concrete interpretation."""

    SPECS = [
        """
f(a: 4 x s16, b: 4 x s16) -> 2 x s32
FOR j := 0 to 1
    i := j*32
    dst[i+31:i] := a[i+15:i]*b[i+15:i] + a[i+31:i+16]*b[i+31:i+16]
ENDFOR
""",
        """
f(a: 4 x u8, b: 4 x u8) -> 4 x u8
FOR j := 0 to 3
    i := j*8
    dst[i+7:i] := Truncate32(ZeroExtend32(a[i+7:i]) + ZeroExtend32(b[i+7:i]) + 1) >> 1
ENDFOR
""",
        """
f(a: 2 x s32, b: 2 x s32) -> 4 x s16
FOR j := 0 to 1
    dst[j*16+15:j*16] := Saturate16(a[j*32+31:j*32])
    dst[(j+2)*16+15:(j+2)*16] := Saturate16(b[j*32+31:j*32])
ENDFOR
""",
        """
f(a: 4 x s16) -> 4 x s16
FOR j := 0 to 3
    i := j*16
    IF j % 2 == 0
        dst[i+15:i] := a[i+15:i]
    ELSE
        dst[i+15:i] := 0 - a[i+15:i]
    FI
ENDFOR
""",
        """
f(a: 2 x s32, b: 2 x s32) -> 2 x s32
FOR j := 0 to 1
    i := j*32
    dst[i+31:i] := MIN(a[i+31:i], b[i+31:i])
ENDFOR
""",
    ]

    @pytest.mark.parametrize("text", SPECS)
    def test_agreement(self, text):
        spec = parse_spec(text)
        result = evaluate_spec(spec)
        rng = random.Random(1234)
        for _ in range(50):
            env = {p.name: rng.getrandbits(p.total_width)
                   for p in spec.params}
            concrete = run_spec(spec, env)
            symbolic = bv_evaluate(result.dst, env)
            assert symbolic == concrete, (text, env)

    def test_if_conversion_with_symbolic_condition(self):
        spec = parse_spec("""
f(a: 1 x s8, b: 1 x s8) -> 1 x s8
IF a[7:0] > b[7:0]
    dst[7:0] := a[7:0]
ELSE
    dst[7:0] := b[7:0]
FI
""")
        result = evaluate_spec(spec)
        rng = random.Random(7)
        for _ in range(50):
            env = {"a": rng.getrandbits(8), "b": rng.getrandbits(8)}
            assert bv_evaluate(result.dst, env) == run_spec(spec, env)

    def test_uninitialized_output_detected(self):
        spec = parse_spec("""
f(a: 2 x s8) -> 2 x s8
dst[7:0] := a[7:0]
""")
        result = evaluate_spec(spec)
        assert result.references_uninitialized_output()
