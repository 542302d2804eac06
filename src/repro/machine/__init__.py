"""Machine model: cost estimation (§6.2) and differential execution of
vector programs against the scalar interpreter."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "costs": ("CostModel", "classify_gather", "gather_cost"),
    "exec": ("MachineExecError", "run_program"),
    "model": ("ProgramCost", "node_cost", "program_cost",
              "scalar_function_cost", "speedup"),
})
