"""Instruction classes for the scalar IR.

The opcode set is the subset of LLVM IR that the paper's kernels exercise:
integer/float arithmetic, bitwise ops, shifts, casts, comparisons, select,
constant-offset ``gep``, loads, stores, and ``ret``.  Functions are single
basic block by construction (VeGen vectorizes straight-line code only; see
§5.2: "VEGEN does not vectorize across basic blocks").
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.ir.types import (
    I1,
    Type,
    VOID,
)
from repro.ir.values import Constant, Value


class Opcode:
    """String constants naming every IR opcode."""

    # Integer binary ops.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    SDIV = "sdiv"
    UDIV = "udiv"
    SREM = "srem"
    UREM = "urem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    LSHR = "lshr"
    ASHR = "ashr"
    # Float binary ops.
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    # Unary.
    FNEG = "fneg"
    # Casts.
    SEXT = "sext"
    ZEXT = "zext"
    TRUNC = "trunc"
    FPEXT = "fpext"
    FPTRUNC = "fptrunc"
    SITOFP = "sitofp"
    FPTOSI = "fptosi"
    # Comparisons / select.
    ICMP = "icmp"
    FCMP = "fcmp"
    SELECT = "select"
    # Memory.
    GEP = "gep"
    LOAD = "load"
    STORE = "store"
    # Terminator.
    RET = "ret"


INT_BINARY_OPS = frozenset(
    {
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.SDIV,
        Opcode.UDIV,
        Opcode.SREM,
        Opcode.UREM,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.SHL,
        Opcode.LSHR,
        Opcode.ASHR,
    }
)
FLOAT_BINARY_OPS = frozenset(
    {Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV}
)
BINARY_OPS = INT_BINARY_OPS | FLOAT_BINARY_OPS
CAST_OPS = frozenset(
    {
        Opcode.SEXT,
        Opcode.ZEXT,
        Opcode.TRUNC,
        Opcode.FPEXT,
        Opcode.FPTRUNC,
        Opcode.SITOFP,
        Opcode.FPTOSI,
    }
)
COMMUTATIVE_OPS = frozenset(
    {
        Opcode.ADD,
        Opcode.MUL,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.FADD,
        Opcode.FMUL,
    }
)


class ICmpPred:
    """Integer comparison predicates (LLVM naming)."""

    EQ = "eq"
    NE = "ne"
    SLT = "slt"
    SLE = "sle"
    SGT = "sgt"
    SGE = "sge"
    ULT = "ult"
    ULE = "ule"
    UGT = "ugt"
    UGE = "uge"

    ALL = (EQ, NE, SLT, SLE, SGT, SGE, ULT, ULE, UGT, UGE)

    _SWAPPED = {
        EQ: EQ, NE: NE,
        SLT: SGT, SGT: SLT, SLE: SGE, SGE: SLE,
        ULT: UGT, UGT: ULT, ULE: UGE, UGE: ULE,
    }
    _INVERTED = {
        EQ: NE, NE: EQ,
        SLT: SGE, SGE: SLT, SGT: SLE, SLE: SGT,
        ULT: UGE, UGE: ULT, UGT: ULE, ULE: UGT,
    }

    @classmethod
    def swapped(cls, pred: str) -> str:
        """Predicate after swapping the two operands."""
        return cls._SWAPPED[pred]

    @classmethod
    def inverted(cls, pred: str) -> str:
        """Logical negation of the predicate."""
        return cls._INVERTED[pred]

    @classmethod
    def is_signed(cls, pred: str) -> bool:
        return pred in (cls.SLT, cls.SLE, cls.SGT, cls.SGE)


class FCmpPred:
    """Float comparison predicates (ordered forms only)."""

    OEQ = "oeq"
    ONE = "one"
    OLT = "olt"
    OLE = "ole"
    OGT = "ogt"
    OGE = "oge"

    ALL = (OEQ, ONE, OLT, OLE, OGT, OGE)

    _SWAPPED = {OEQ: OEQ, ONE: ONE, OLT: OGT, OGT: OLT, OLE: OGE, OGE: OLE}
    _INVERTED = {OEQ: ONE, ONE: OEQ, OLT: OGE, OGE: OLT, OGT: OLE, OLE: OGT}

    @classmethod
    def swapped(cls, pred: str) -> str:
        return cls._SWAPPED[pred]

    @classmethod
    def inverted(cls, pred: str) -> str:
        return cls._INVERTED[pred]


class Instruction(Value):
    """Base class for all IR instructions.

    An instruction is itself a :class:`Value` (its result).  Operand lists
    are mutable so passes can rewrite them; use :meth:`set_operand` to keep
    use lists consistent.
    """

    __slots__ = ("opcode", "operands", "parent", "_prev", "_next")

    def __init__(self, opcode: str, ty: Type, operands: Sequence[Value],
                 name: str = ""):
        super().__init__(ty, name)
        self.opcode = opcode
        self.operands: List[Value] = list(operands)
        self.parent = None  # set when inserted into a Block
        # Intrusive doubly-linked-list hooks, owned by the parent Block.
        self._prev: Optional["Instruction"] = None
        self._next: Optional["Instruction"] = None
        for op in self.operands:
            op.uses.append(self)

    def set_operand(self, index: int, value: Value) -> None:
        old = self.operands[index]
        if old is value:
            return
        old.uses.remove(self)
        self.operands[index] = value
        value.uses.append(self)

    def drop_operands(self) -> None:
        """Remove this instruction from its operands' use lists."""
        for op in self.operands:
            if self in op.uses:
                op.uses.remove(self)
        self.operands = []

    @property
    def is_terminator(self) -> bool:
        return self.opcode == Opcode.RET

    @property
    def is_memory(self) -> bool:
        return self.opcode in (Opcode.LOAD, Opcode.STORE)

    @property
    def has_result(self) -> bool:
        return not self.type.is_void

    def __repr__(self) -> str:
        ops = ", ".join(o.short_name() for o in self.operands)
        return f"<{self.opcode} {ops}>"


class BinaryInst(Instruction):
    """A two-operand arithmetic/bitwise instruction."""

    __slots__ = ()

    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = ""):
        if opcode not in BINARY_OPS:
            raise ValueError(f"not a binary opcode: {opcode}")
        if lhs.type != rhs.type:
            raise TypeError(
                f"{opcode}: operand type mismatch {lhs.type} vs {rhs.type}"
            )
        if opcode in INT_BINARY_OPS and not lhs.type.is_integer:
            raise TypeError(f"{opcode} requires integer operands")
        if opcode in FLOAT_BINARY_OPS and not lhs.type.is_float:
            raise TypeError(f"{opcode} requires float operands")
        super().__init__(opcode, lhs.type, [lhs, rhs], name)


class UnaryInst(Instruction):
    """A one-operand instruction (currently only ``fneg``)."""

    __slots__ = ()

    def __init__(self, opcode: str, operand: Value, name: str = ""):
        if opcode != Opcode.FNEG:
            raise ValueError(f"not a unary opcode: {opcode}")
        if not operand.type.is_float:
            raise TypeError("fneg requires a float operand")
        super().__init__(opcode, operand.type, [operand], name)


class CastInst(Instruction):
    """A width/representation conversion."""

    __slots__ = ()

    def __init__(self, opcode: str, operand: Value, dest: Type,
                 name: str = ""):
        if opcode not in CAST_OPS:
            raise ValueError(f"not a cast opcode: {opcode}")
        _check_cast(opcode, operand.type, dest)
        super().__init__(opcode, dest, [operand], name)


def _check_cast(opcode: str, src: Type, dest: Type) -> None:
    if opcode in (Opcode.SEXT, Opcode.ZEXT):
        if not (src.is_integer and dest.is_integer and dest.width > src.width):
            raise TypeError(f"{opcode}: invalid {src} -> {dest}")
    elif opcode == Opcode.TRUNC:
        if not (src.is_integer and dest.is_integer and dest.width < src.width):
            raise TypeError(f"trunc: invalid {src} -> {dest}")
    elif opcode == Opcode.FPEXT:
        if not (src.is_float and dest.is_float and dest.width > src.width):
            raise TypeError(f"fpext: invalid {src} -> {dest}")
    elif opcode == Opcode.FPTRUNC:
        if not (src.is_float and dest.is_float and dest.width < src.width):
            raise TypeError(f"fptrunc: invalid {src} -> {dest}")
    elif opcode == Opcode.SITOFP:
        if not (src.is_integer and dest.is_float):
            raise TypeError(f"sitofp: invalid {src} -> {dest}")
    elif opcode == Opcode.FPTOSI:
        if not (src.is_float and dest.is_integer):
            raise TypeError(f"fptosi: invalid {src} -> {dest}")


class ICmpInst(Instruction):
    """Integer comparison producing an ``i1``."""

    __slots__ = ("pred",)

    def __init__(self, pred: str, lhs: Value, rhs: Value, name: str = ""):
        if pred not in ICmpPred.ALL:
            raise ValueError(f"bad icmp predicate: {pred}")
        if lhs.type != rhs.type or not lhs.type.is_integer:
            raise TypeError(
                f"icmp: bad operand types {lhs.type}, {rhs.type}"
            )
        super().__init__(Opcode.ICMP, I1, [lhs, rhs], name)
        self.pred = pred


class FCmpInst(Instruction):
    """Float comparison producing an ``i1``."""

    __slots__ = ("pred",)

    def __init__(self, pred: str, lhs: Value, rhs: Value, name: str = ""):
        if pred not in FCmpPred.ALL:
            raise ValueError(f"bad fcmp predicate: {pred}")
        if lhs.type != rhs.type or not lhs.type.is_float:
            raise TypeError(
                f"fcmp: bad operand types {lhs.type}, {rhs.type}"
            )
        super().__init__(Opcode.FCMP, I1, [lhs, rhs], name)
        self.pred = pred


class SelectInst(Instruction):
    """``select cond, true_value, false_value``."""

    __slots__ = ()

    def __init__(self, cond: Value, on_true: Value, on_false: Value,
                 name: str = ""):
        if not cond.type.is_bool:
            raise TypeError("select condition must be i1")
        if on_true.type != on_false.type:
            raise TypeError("select arms must have matching types")
        super().__init__(
            Opcode.SELECT, on_true.type, [cond, on_true, on_false], name
        )

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def true_value(self) -> Value:
        return self.operands[1]

    @property
    def false_value(self) -> Value:
        return self.operands[2]


class GEPInst(Instruction):
    """Constant-offset pointer arithmetic: ``gep base, offset``.

    Offsets are in *elements* of the pointee type.  Restricting offsets to
    constants keeps contiguity analysis for load/store packing exact, which
    matches the paper's fully-unrolled straight-line kernels.
    """

    __slots__ = ()

    def __init__(self, base: Value, offset: Value, name: str = ""):
        if not base.type.is_pointer:
            raise TypeError("gep base must be a pointer")
        if not isinstance(offset, Constant) or not offset.type.is_integer:
            raise TypeError("gep offset must be an integer constant")
        super().__init__(Opcode.GEP, base.type, [base, offset], name)

    @property
    def base(self) -> Value:
        return self.operands[0]

    @property
    def offset(self) -> int:
        return self.operands[1].signed_value()  # type: ignore[attr-defined]


class LoadInst(Instruction):
    """Load the element a pointer refers to."""

    __slots__ = ()

    def __init__(self, pointer: Value, name: str = ""):
        if not pointer.type.is_pointer:
            raise TypeError("load requires a pointer operand")
        super().__init__(Opcode.LOAD, pointer.type.pointee, [pointer], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class StoreInst(Instruction):
    """Store a scalar value through a pointer."""

    __slots__ = ()

    def __init__(self, value: Value, pointer: Value, name: str = ""):
        if not pointer.type.is_pointer:
            raise TypeError("store requires a pointer operand")
        if pointer.type.pointee != value.type:
            raise TypeError(
                f"store type mismatch: {value.type} into {pointer.type}"
            )
        super().__init__(Opcode.STORE, VOID, [value, pointer], name)

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]


class RetInst(Instruction):
    """Function return (optionally with a scalar value)."""

    __slots__ = ()

    def __init__(self, value: Optional[Value] = None):
        operands = [value] if value is not None else []
        super().__init__(Opcode.RET, VOID, operands)

    @property
    def return_value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None


def pointer_base_and_offset(pointer: Value):
    """Resolve a pointer value to ``(base argument, element offset)``.

    Returns ``(None, None)`` if the pointer cannot be resolved statically
    (which cannot happen for IR built through :class:`GEPInst`, but keeps
    callers defensive).
    """
    offset = 0
    while isinstance(pointer, GEPInst):
        offset += pointer.offset
        pointer = pointer.base
    from repro.ir.values import Argument

    if isinstance(pointer, Argument):
        return pointer, offset
    return None, None
