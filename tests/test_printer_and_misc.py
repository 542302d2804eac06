"""Coverage for printers, formatters, and assorted edge cases across the
smaller modules."""

import ast
import importlib
from pathlib import Path

import pytest

from repro.bitvector import (
    bv_binary,
    bv_concat,
    bv_const,
    bv_extract,
    bv_ite,
    bv_sext,
    bv_var,
    format_expr,
)
from repro.ir import Function, IRBuilder, I32, pointer_to
from repro.pseudocode import parse_spec
from repro.vidl import format_inst_desc, format_operation, lift_spec


class TestBitvectorPrinter:
    def test_all_node_kinds_render(self):
        x = bv_var("x", 16)
        expr = bv_ite(
            bv_binary("slt", x, bv_const(0, 16)),
            bv_concat([bv_extract(7, 0, x), bv_const(1, 8)]),
            bv_sext(bv_extract(7, 0, x), 16),
        )
        text = format_expr(expr)
        for token in ("ite", "slt", "concat", "sext16", "x:16", "[7:0]"):
            assert token in text

    def test_repr_uses_formatter(self):
        assert "x:8" in repr(bv_var("x", 8))


class TestVIDLPrinter:
    def test_two_operation_instruction(self):
        desc = lift_spec(parse_spec("""
addsub(a: 2 x f64, b: 2 x f64) -> 2 x f64
dst[63:0] := a[63:0] - b[63:0]
dst[127:64] := a[127:64] + b[127:64]
"""))
        text = format_inst_desc(desc)
        assert "op0" in text and "op1" in text
        assert "fsub" in text and "fadd" in text

    def test_operation_formats_predicates(self):
        desc = lift_spec(parse_spec("""
cmp(a: 2 x s32, b: 2 x s32) -> 2 x u1
FOR j := 0 to 1
    dst[j:j] := a[j*32+31:j*32] > b[j*32+31:j*32]
ENDFOR
"""))
        text = format_operation(desc.lane_ops[0].operation)
        assert "sgt(" in text


class TestProgramDumps:
    def test_dead_lane_annotation(self):
        from repro.target import get_target
        from repro.vectorizer import VOp

        inst = get_target("avx2").get("pmuldq_128")
        op = VOp(inst, [], live_lanes=[True, False])
        assert "1 dead lanes" in op.describe()

    def test_count_nodes_excludes_geps(self):
        from repro.vectorizer import scalar_program

        fn = Function("f", [("p", pointer_to(I32)), ("q", pointer_to(I32))])
        b = IRBuilder(fn)
        b.store(b.load(fn.args[0], 0), fn.args[1], 0)
        b.ret()
        prog = scalar_program(fn)
        # gep, load, gep, store -> 2 countable nodes
        assert prog.count_nodes() == 2
        assert prog.count_nodes(include_free=True) == 4


class TestTargetReprs:
    def test_target_repr(self):
        from repro.target import get_target

        text = repr(get_target("avx2"))
        assert "avx2" in text and "instructions" in text

    def test_instruction_repr(self):
        from repro.target import get_target

        assert "pmaddwd_128" in repr(get_target("avx2").get("pmaddwd_128"))


class TestConfig:
    def test_default_config_values(self):
        from repro.vectorizer import VectorizerConfig

        cfg = VectorizerConfig()
        assert cfg.beam_width == 64
        assert cfg.patience > 0
        assert cfg.max_match_combinations >= 1

    def test_beam_width_override_in_vectorize(self):
        from repro.frontend import compile_kernel
        from repro.kernels import all_kernels
        from repro.obs import Counters
        from repro.vectorizer import VectorizerConfig, vectorize

        fn = compile_kernel("""
void f(const int32_t *restrict a, int32_t *restrict b) {
    for (int i = 0; i < 4; i++) { b[i] = a[i] + 1; }
}
""")
        cfg = VectorizerConfig(beam_width=2, patience=4)
        result = vectorize(fn, target="avx2", beam_width=2, config=cfg)
        assert result.vectorized

        def states_expanded(**kwargs):
            counters = Counters()
            vectorize(all_kernels()["complex_mul"], target="avx2",
                      counters=counters, **kwargs)
            return counters["beam.states_expanded"]

        at_2, at_4, at_64 = (states_expanded(beam_width=width)
                             for width in (2, 4, 64))
        assert len({at_2, at_4, at_64}) == 3
        # Without an explicit width the config's width is the one used.
        cfg = VectorizerConfig(beam_width=2)
        assert states_expanded(config=cfg) == at_2
        assert cfg.beam_width == 2
        # An explicit width wins, on a copy of the caller's config.
        assert states_expanded(beam_width=4, config=cfg) == at_4
        assert cfg.beam_width == 2
        # Neither: the default width.
        assert states_expanded() == at_64


SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages whose public names resolve lazily (PEP 562).
LAZY_PACKAGES = ("repro", "repro.vidl", "repro.obs", "repro.machine",
                 "repro.patterns", "repro.vectorizer")


def _top_level_definitions(package):
    """``name -> [module, ...]``: the modules under ``package`` whose
    source defines ``name`` at top level (a def, a class or an
    assignment; an import is not a definition)."""
    defined = {}
    for path in sorted(SRC.joinpath(*package.split(".")).rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(p for p in parts if p != "__init__")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            for name in names:
                defined.setdefault(name, []).append(module)
    return defined


class TestPublicAPI:
    def test_star_import_surface(self):
        for package in LAZY_PACKAGES:
            pkg = importlib.import_module(package)
            defined = _top_level_definitions(package)
            for name in pkg.__all__:
                if name == "__version__":
                    continue
                # Resolves to the object its defining module holds.
                homes = [m for m in defined.get(name, ()) if m != package]
                assert homes, f"{package}.{name} is defined nowhere"
                value = getattr(pkg, name)
                assert any(getattr(importlib.import_module(m), name)
                           is value for m in homes), (package, name)
            assert set(pkg.__all__) <= set(dir(pkg)), package
            namespace = {}
            exec(f"from {package} import *", namespace)
            assert set(pkg.__all__) <= set(namespace), package
            with pytest.raises(AttributeError):
                getattr(pkg, "no_such_export")

    def test_dont_care_is_one_object(self):
        import repro.vidl
        from repro.vidl import ast as vidl_ast, interp as vidl_interp

        assert repro.vidl.DONT_CARE is vidl_ast.DONT_CARE
        assert vidl_interp.DONT_CARE is vidl_ast.DONT_CARE

    def test_version(self):
        import repro

        assert repro.__version__
