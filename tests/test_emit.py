"""Tests for the C intrinsics emitter (``repro.emit``).

Golden files (``tests/golden/emit/<kernel>.<target>.c``) pin the exact
emitted source for four representative kernels on all four targets, so
any formatting or intrinsic-selection change shows up as a readable
diff.  On hosts with a C compiler, every emitted x86 source is also
syntax-checked with the real vendor headers; NEON sources are only
golden-checked (the CI image has no aarch64 toolchain — mirroring the
emit-smoke CI job's skip rule).  ``tests/test_bench_digests.py`` emits
every bench cell at the bench width.
"""

import os
import shutil
import subprocess

import pytest

from repro.emit import EmitError, emit_c
from repro.kernels import all_kernels
from repro.target import get_target
from repro.vectorizer import vectorize
from repro.vectorizer.pipeline import VectorizationResult

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "emit")

#: Representative kernels: a fixed-point dot product (pmaddwd), a float
#: horizontal add (hadd/vpadd), a non-SIMD swizzle kernel (complex
#: multiply), and a multi-step DSP kernel (idct4).
KERNELS = ("complex_mul", "dsp_idct4", "isel_hadd_ps", "isel_pmaddwd")
TARGETS = ("sse4", "avx2", "avx512_vnni", "neon128")

#: gcc flags enabling each x86 target's extensions for -fsyntax-only.
_GCC_FLAGS = {
    "sse4": ["-msse4.2"],
    "avx2": ["-mavx2", "-mfma"],
    "avx512_vnni": ["-mavx512f", "-mavx512bw", "-mavx512vl",
                    "-mavx512vnni"],
}

#: One load-bearing vendor intrinsic per golden cell spot-checked by
#: name: the emitter must name real intrinsics, not model mnemonics.
_EXPECTED_INTRINSIC = {
    ("isel_pmaddwd", "sse4"): "_mm_madd_epi16",
    ("isel_pmaddwd", "avx2"): "_mm_madd_epi16",
    ("isel_pmaddwd", "neon128"): "vmull_s16",
    ("isel_hadd_ps", "sse4"): "_mm_hadd_ps",
    ("isel_hadd_ps", "neon128"): "vpaddq_f32",
    ("dsp_idct4", "sse4"): "_mm_add_epi32",
    ("dsp_idct4", "neon128"): "vaddq_s32",
}


def _emitted(kernel, target_name):
    target = get_target(target_name)
    result = vectorize(all_kernels()[kernel], target=target)
    return result, emit_c(result.program, target)


class TestGoldenEmission:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("target", TARGETS)
    def test_matches_golden(self, kernel, target):
        path = os.path.join(GOLDEN_DIR, f"{kernel}.{target}.c")
        with open(path) as handle:
            golden = handle.read()
        _, source = _emitted(kernel, target)
        assert source == golden

    def test_goldens_cover_the_matrix(self):
        files = {n for n in os.listdir(GOLDEN_DIR) if n.endswith(".c")}
        assert files == {f"{k}.{t}.c" for k in KERNELS for t in TARGETS}

    @pytest.mark.parametrize("kernel,target",
                             sorted(_EXPECTED_INTRINSIC))
    def test_names_real_vendor_intrinsics(self, kernel, target):
        _, source = _emitted(kernel, target)
        assert _EXPECTED_INTRINSIC[(kernel, target)] in source

    def test_family_headers(self):
        _, x86 = _emitted("isel_pmaddwd", "sse4")
        _, neon = _emitted("isel_pmaddwd", "neon128")
        assert "#include <immintrin.h>" in x86
        assert "#include <arm_neon.h>" in neon
        assert "#include <stdint.h>" in x86


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc")
class TestCompiles:
    """Emitted x86 sources must be accepted by a real compiler against
    the real vendor headers (neon needs a cross toolchain; CI skips it
    the same way)."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("target", sorted(_GCC_FLAGS))
    def test_gcc_syntax_only(self, kernel, target, tmp_path):
        _, source = _emitted(kernel, target)
        path = tmp_path / f"{kernel}.{target}.c"
        path.write_text(source)
        proc = subprocess.run(
            ["gcc", "-fsyntax-only", "-Wall",
             "-Werror=implicit-function-declaration"]
            + _GCC_FLAGS[target] + [str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr


class TestResultSurface:
    def test_c_source_property(self):
        result = vectorize(all_kernels()["isel_pmaddwd"], target="sse4")
        assert result.target is not None
        assert result.target.name == "sse4"
        assert "_mm_madd_epi16" in result.c_source

    def test_c_source_without_target_raises(self):
        result = vectorize(all_kernels()["isel_pmaddwd"], target="sse4")
        bare = VectorizationResult(
            function=result.function,
            program=result.program,
            packs=result.packs,
            scalar_cost=result.scalar_cost,
            cost=result.cost,
            estimated_cost=result.estimated_cost,
        )
        with pytest.raises(EmitError):
            bare.c_source

    def test_emit_requires_intrinsic_metadata(self):
        # A target stripped of metadata must fail loudly, not emit
        # model mnemonics.
        from repro.target.isa import TargetDesc, TargetInstruction

        target = get_target("sse4")
        stripped = []
        for inst in target.instructions:
            stripped.append(TargetInstruction(
                name=inst.name, desc=inst.desc,
                match_ops=inst.match_ops, cost=inst.cost,
                requires=inst.requires, spec_text=inst.spec_text,
            ))
        bare = TargetDesc("sse4-bare", target.extensions, stripped,
                          family=target.family)
        result = vectorize(all_kernels()["isel_pmaddwd"], target=bare)
        with pytest.raises(EmitError, match="intrinsic"):
            emit_c(result.program, bare)


class TestEmitCLI:
    def test_emit_c_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "dot.c"
        path.write_text("""
void dot(const int16_t *restrict a, const int16_t *restrict b,
         int32_t *restrict c) {
    c[0] = a[0] * b[0] + a[1] * b[1];
    c[1] = a[2] * b[2] + a[3] * b[3];
}
""")
        assert main(["vectorize", str(path), "--beam-width", "8",
                     "--emit-c"]) == 0
        out = capsys.readouterr().out
        assert "_mm_madd_epi16" in out
        assert "#include <immintrin.h>" in out

    def test_emit_c_flag_neon(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "add.c"
        path.write_text("""
void vadd(const int32_t *restrict a, const int32_t *restrict b,
          int32_t *restrict c) {
    c[0] = a[0] + b[0];
    c[1] = a[1] + b[1];
    c[2] = a[2] + b[2];
    c[3] = a[3] + b[3];
}
""")
        assert main(["vectorize", str(path), "--target", "neon128",
                     "--beam-width", "8", "--emit-c"]) == 0
        out = capsys.readouterr().out
        assert "vaddq_s32" in out
        assert "#include <arm_neon.h>" in out
