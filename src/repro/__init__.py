"""VeGen reproduction: a vectorizer generator for SIMD and beyond.

Pure-Python reproduction of *VeGen: A Vectorizer Generator for SIMD and
Beyond* (Chen, Mendis, Carbin, Amarasinghe - ASPLOS 2021).

The package splits the same way the paper does (Figure 3):

**Offline phase** (the vectorizer *generator*):

* :mod:`repro.pseudocode` - Intel-documentation-style instruction
  semantics; symbolic evaluation into bitvector formulas (Section 6.1).
* :mod:`repro.bitvector` - the formula representation and simplifier
  (the z3 stand-in).
* :mod:`repro.vidl` - the Vector Instruction Description Language
  (Section 4.1) and the lifter from formulas to per-lane operations.
* :mod:`repro.patterns` - generated pattern matchers and the
  instcombine-style canonicalizer (Sections 4.2 and 6).
* :mod:`repro.target` - the synthetic x86-flavoured ISA, built entirely
  from pseudocode specs; ``repro gen`` serializes the generated
  utilities into a versioned artifact loaded at compile time.

**Compile-time phase** (the generated vectorizer):

* :mod:`repro.ir` - the scalar IR being vectorized, with interpreter and
  dependence analysis.
* :mod:`repro.frontend` - a mini-C frontend producing straight-line IR.
* :mod:`repro.vectorizer` - packs, Algorithm 1, seeds, the Figure 7 cost
  recurrence, Figure 9 beam search, and code generation.
* :mod:`repro.baseline` - the LLVM-SLP-style baseline of Section 7.
* :mod:`repro.machine` - the throughput cost model (Section 6.2) and the
  vector program interpreter used for differential correctness.
* :mod:`repro.kernels` - every kernel of the paper's evaluation.
* :mod:`repro.passes` - the LLVM-new-PM-style pass manager the
  compile-time phase is organized as (passes, pipelines, cached
  analyses with invalidation).
* :mod:`repro.session` - :class:`VectorizationSession`, amortizing
  target construction and pipeline setup across many functions.
* :mod:`repro.obs` - observability: phase tracing, pipeline counters,
  and the ``repro bench`` perf-trajectory harness.

Quick start::

    from repro import compile_kernel, vectorize

    fn = compile_kernel('''
    void dot(const int16_t *restrict a, const int16_t *restrict b,
             int32_t *restrict c) {
        for (int j = 0; j < 2; j++) {
            c[j] = a[2*j] * b[2*j] + a[2*j+1] * b[2*j+1];
        }
    }
    ''')
    result = vectorize(fn, target="avx2")
    print(result.program.dump())       # uses pmaddwd
"""

import importlib
import sys
from typing import TYPE_CHECKING, Callable, List, Mapping, Sequence, Tuple

__version__ = "1.0.0"


def _lazy_exports(package: str, exports: Mapping[str, Sequence[str]]
                  ) -> Tuple[Callable[[str], object],
                             Callable[[], List[str]], List[str]]:
    """PEP 562 lazy exports for a package: ``exports`` maps each
    defining submodule (relative to ``package``) to the public names it
    provides.  Returns the package's ``__getattr__``, ``__dir__`` and
    ``__all__``.

    Importing the package imports none of its submodules; a name's
    defining module is imported on first access and the value cached in
    the package namespace.  So ``import repro`` stays cheap, and a
    compile-time caller never pays for the offline generator behind a
    sibling export (DESIGN.md §10).
    """
    owner = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str):
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module("." + module, package),
                        name)
        setattr(sys.modules[package], name, value)  # once per name
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__, list(owner)


__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "baseline": ("baseline_vectorize", "get_baseline_target"),
    "frontend": ("compile_c", "compile_kernel"),
    "ir": ("Buffer", "Function", "IRBuilder", "parse_function",
           "print_function", "run_function", "verify_function"),
    "machine": ("CostModel", "program_cost", "run_program",
                "scalar_function_cost", "speedup"),
    "target": ("TargetDesc", "TargetInstruction", "available_targets",
               "build_instruction", "clear_caches", "generate_artifact",
               "get_target", "load_artifact", "write_artifact"),
    "passes": ("PassPipeline", "available_passes", "build_pipeline"),
    "session": ("VectorizationSession", "vectorize_many"),
    "analysis": ("AnalysisManager", "Diagnostic", "SanitizerError",
                 "analyze_result"),
    "obs": ("Counters", "Tracer", "compare_bench", "load_bench",
            "run_bench", "write_bench"),
    "vectorizer": ("VectorizationResult", "VectorizerConfig",
                   "scalar_program", "vectorize"),
})
__all__.append("__version__")


if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.analysis import (
        AnalysisManager,
        Diagnostic,
        SanitizerError,
        analyze_result,
    )
    from repro.baseline import baseline_vectorize, get_baseline_target
    from repro.frontend import compile_c, compile_kernel
    from repro.ir import (
        Buffer,
        Function,
        IRBuilder,
        parse_function,
        print_function,
        run_function,
        verify_function,
    )
    from repro.machine import (
        CostModel,
        program_cost,
        run_program,
        scalar_function_cost,
        speedup,
    )
    from repro.obs import (
        Counters,
        Tracer,
        compare_bench,
        load_bench,
        run_bench,
        write_bench,
    )
    from repro.passes import (
        PassPipeline,
        available_passes,
        build_pipeline,
    )
    from repro.session import VectorizationSession, vectorize_many
    from repro.target import (
        TargetDesc,
        TargetInstruction,
        available_targets,
        build_instruction,
        clear_caches,
        generate_artifact,
        get_target,
        load_artifact,
        write_artifact,
    )
    from repro.vectorizer import (
        VectorizationResult,
        VectorizerConfig,
        scalar_program,
        vectorize,
    )
