"""Types for the LLVM-like IR (the mini-C compilation target).

Clou analyzes LLVM IR structurally; this IR mirrors the parts the
analysis consumes: integer widths, pointers (for alias analysis),
arrays and structs (for ``getelementptr`` address arithmetic, which the
``addr_gep`` filter keys on, §5.2).
"""

from __future__ import annotations

from dataclasses import dataclass


class Type:
    """Base class for IR types (immutable, structural equality)."""

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    def size_bytes(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class VoidType(Type):
    def size_bytes(self) -> int:
        return 0

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(Type):
    bits: int
    signed: bool = True

    def size_bytes(self) -> int:
        return max(1, self.bits // 8)

    def __str__(self) -> str:
        return f"{'i' if self.signed else 'u'}{self.bits}"


@dataclass(frozen=True)
class PointerType(Type):
    pointee: Type

    def size_bytes(self) -> int:
        return 8

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class ArrayType(Type):
    element: Type
    count: int

    def size_bytes(self) -> int:
        return self.element.size_bytes() * self.count

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"


@dataclass(frozen=True)
class StructType(Type):
    name: str
    fields: tuple[tuple[str, Type], ...] = ()

    def size_bytes(self) -> int:
        return sum(t.size_bytes() for _, t in self.fields)

    def field_index(self, name: str) -> int:
        for i, (field_name, _) in enumerate(self.fields):
            if field_name == name:
                return i
        raise KeyError(f"struct {self.name} has no field {name!r}")

    def field_type(self, name: str) -> Type:
        return self.fields[self.field_index(name)][1]

    def field_offset(self, name: str) -> int:
        offset = 0
        for field_name, field_type in self.fields:
            if field_name == name:
                return offset
            offset += field_type.size_bytes()
        raise KeyError(f"struct {self.name} has no field {name!r}")

    def __str__(self) -> str:
        return f"%struct.{self.name}"


VOID = VoidType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
U8 = IntType(8, signed=False)
U16 = IntType(16, signed=False)
U32 = IntType(32, signed=False)
U64 = IntType(64, signed=False)


def pointer_to(pointee: Type) -> PointerType:
    return PointerType(pointee)


def element_type(type_: Type) -> Type:
    """The type obtained by indexing into a pointer or array."""
    if isinstance(type_, PointerType):
        return type_.pointee
    if isinstance(type_, ArrayType):
        return type_.element
    raise TypeError(f"cannot index into {type_}")
