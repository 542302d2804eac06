"""Core value classes for the scalar IR: values, constants, arguments.

Instructions (which are also values) live in ``repro.ir.instructions``.
"""

from __future__ import annotations

from typing import List

from repro.ir.types import FloatType, IntType, Type
from repro.utils.fp import round_to_width
from repro.utils.intmath import mask, to_signed


class Value:
    """Anything that can appear as an instruction operand.

    Each value tracks its users so that passes (canonicalization, dead code
    elimination) can rewrite uses in place.
    """

    __slots__ = ("type", "name", "uses")

    def __init__(self, ty: Type, name: str = ""):
        self.type = ty
        self.name = name
        # List of instructions that use this value (with multiplicity).
        self.uses: List["Value"] = []

    def replace_all_uses_with(self, new: "Value") -> None:
        """Rewrite every use of ``self`` to use ``new`` instead."""
        if new is self:
            return
        for user in list(self.uses):
            operands = user.operands  # type: ignore[attr-defined]
            for i, op in enumerate(operands):
                if op is self:
                    operands[i] = new
                    new.uses.append(user)
        self.uses.clear()

    @property
    def num_uses(self) -> int:
        return len(self.uses)

    def short_name(self) -> str:
        return self.name or f"<{type(self).__name__}>"


class Constant(Value):
    """An immediate constant.

    Integer payloads are always stored in unsigned (masked) form; use
    :meth:`signed_value` for the two's-complement interpretation.  Float
    payloads are rounded to their format width at construction.
    """

    __slots__ = ("value",)

    def __init__(self, ty: Type, value):
        super().__init__(ty)
        if isinstance(ty, IntType):
            value = mask(int(value), ty.width)
        elif isinstance(ty, FloatType):
            value = round_to_width(float(value), ty.width)
        else:
            raise TypeError(f"constants must be int or float typed, got {ty}")
        self.value = value

    @classmethod
    def int(cls, ty: IntType, value: int) -> "Constant":
        return cls(ty, value)

    @classmethod
    def float(cls, ty: FloatType, value: float) -> "Constant":
        return cls(ty, value)

    @classmethod
    def bool(cls, value: bool) -> "Constant":
        from repro.ir.types import I1

        return cls(I1, 1 if value else 0)

    def signed_value(self) -> int:
        """Two's-complement interpretation of an integer constant."""
        if not isinstance(self.type, IntType):
            raise TypeError("signed_value on non-integer constant")
        return to_signed(self.value, self.type.width)

    def is_zero(self) -> bool:
        return self.value == 0

    def __repr__(self) -> str:
        if isinstance(self.type, IntType):
            return f"{self.type} {self.signed_value()}"
        return f"{self.type} {self.value!r}"


class Argument(Value):
    """A function argument: either a scalar or a pointer to a buffer."""

    __slots__ = ("index",)

    def __init__(self, ty: Type, name: str, index: int):
        super().__init__(ty, name)
        self.index = index

    def __repr__(self) -> str:
        return f"%{self.name}: {self.type}"


def constants_equal(a: Value, b: Value) -> bool:
    """Structural equality for constants (identity for everything else)."""
    if a is b:
        return True
    if isinstance(a, Constant) and isinstance(b, Constant):
        return a.type == b.type and a.value == b.value
    return False
