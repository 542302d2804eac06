"""Offline pattern generation and compile-time pattern matching
(§4.2, §4.3, §6)."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "canonicalize": ("canonicalize_function", "canonicalize_operation"),
    "match_table": ("MatchTable", "OperationIndex"),
    "matcher": ("Match", "match_operation"),
    "roundtrip": ("RoundTripError", "function_to_operation",
                  "operation_to_function"),
})
