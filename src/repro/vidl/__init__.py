"""Vector Instruction Description Language (§4.1) and its offline lifter
from pseudocode semantics (§6.1)."""

from repro import _lazy_exports

# The compile-time phase needs only ``ast``; ``lift`` (the offline
# lifter) pulls in the pseudocode evaluator and the bitvector
# simplifier, so nothing here is imported until a name is used.
__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "ast": ("DONT_CARE", "InstDesc", "LaneOp", "LaneRef", "OpConst",
            "OpExpr", "OpNode", "OpParam", "Operation", "VectorInput"),
    "interp": ("VIDLExecError", "bits_from_lanes", "execute_inst",
               "execute_operation", "lanes_from_bits"),
    "lift": ("LiftError", "elem_type_of", "lift_spec", "lift_symbolic"),
    "printer": ("format_inst_desc", "format_op_expr", "format_operation"),
})
