"""The target-independent vectorizer (§4.4, §4.5, §5): packs, producer
enumeration (Algorithm 1), seed enumeration (Figure 8), the SLP-heuristic
cost recurrence (Figure 7), beam search (Figure 9), and code generation."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "beam": ("BeamSearch", "select_packs"),
    "codegen": ("CodegenError", "generate"),
    "context": ("VectorizationContext", "VectorizerConfig"),
    "pack": ("ComputePack", "InvalidPack", "LoadPack", "Pack", "StorePack",
             "operand_key", "pack_depends_on", "packs_independent"),
    "pipeline": ("VectorizationResult", "clone_function", "scalar_program",
                 "vectorize"),
    "producers": ("producers_for_operand",),
    "report": ("render_report",),
    "seeds": ("AffinityEstimator", "AffinityParams",
              "affinity_seed_tuples", "store_seed_packs"),
    "slp": ("SLPCostEstimator",),
    "vector_ir": ("ElementSource", "VExtract", "VGather", "VLoad", "VNode",
                  "VOp", "VScalar", "VStore", "VectorProgram"),
})
