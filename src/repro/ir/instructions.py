"""IR values and instructions.

The instruction set mirrors what Clang -O0 emits for the C subset the
benchmarks need: every local lives in an ``alloca``; every use round-trips
through ``load``/``store`` (this is what makes the paper's stack-spill
Spectre variants visible, §6.1); address arithmetic is explicit
``getelementptr``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.types import Type, VOID


# ----------------------------------------------------------------------
# Values (operands)
# ----------------------------------------------------------------------


class Value:
    """Base class for operands."""

    type: Type


@dataclass(frozen=True)
class Constant(Value):
    value: int
    type: Type

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Temp(Value):
    """An SSA-ish virtual register (assigned by exactly one instruction)."""

    name: str
    type: Type

    def __str__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class GlobalRef(Value):
    """A pointer to a module-level global."""

    name: str
    type: Type  # pointer to the global's value type

    def __str__(self) -> str:
        return f"@{self.name}"


@dataclass(frozen=True)
class Argument(Value):
    name: str
    type: Type

    def __str__(self) -> str:
        return f"%{self.name}"


# ----------------------------------------------------------------------
# Instructions
# ----------------------------------------------------------------------


@dataclass
class Instruction:
    """Base class; ``result`` is the defined Temp (or None)."""

    result: Temp | None = field(default=None, kw_only=True)

    def operands(self) -> list[Value]:
        return []

    @property
    def is_terminator(self) -> bool:
        return isinstance(self, (Branch, Jump, Ret))


@dataclass
class Alloca(Instruction):
    """Stack allocation for one local variable."""

    allocated_type: Type = VOID
    var_name: str = ""

    def __str__(self) -> str:
        return f"{self.result} = alloca {self.allocated_type} ; {self.var_name}"


@dataclass
class Load(Instruction):
    pointer: Value = None

    def operands(self) -> list[Value]:
        return [self.pointer]

    def __str__(self) -> str:
        return f"{self.result} = load {self.result.type}, {self.pointer}"


@dataclass
class Store(Instruction):
    value: Value = None
    pointer: Value = None

    def operands(self) -> list[Value]:
        return [self.value, self.pointer]

    def __str__(self) -> str:
        return f"store {self.value}, {self.pointer}"


@dataclass
class GetElementPtr(Instruction):
    """Pointer arithmetic: ``base + indices`` (scaled by element sizes).

    ``is_index_arithmetic`` distinguishes a computed (data-dependent)
    index from a constant struct-field offset — the former is what the
    ``addr_gep`` dependency (§5.2) keys on.
    """

    base: Value = None
    indices: tuple[Value, ...] = ()
    element: Type = VOID  # pointee type of the result

    def operands(self) -> list[Value]:
        return [self.base, *self.indices]

    @property
    def is_index_arithmetic(self) -> bool:
        return any(not isinstance(index, Constant) for index in self.indices)

    def __str__(self) -> str:
        rendered = ", ".join(str(i) for i in self.indices)
        return f"{self.result} = getelementptr {self.base}, [{rendered}]"


@dataclass
class BinOp(Instruction):
    op: str = "add"  # add sub mul udiv sdiv urem and or xor shl lshr ashr
    lhs: Value = None
    rhs: Value = None

    def operands(self) -> list[Value]:
        return [self.lhs, self.rhs]

    def __str__(self) -> str:
        return f"{self.result} = {self.op} {self.lhs}, {self.rhs}"


@dataclass
class ICmp(Instruction):
    op: str = "eq"  # eq ne ult ule ugt uge slt sle sgt sge
    lhs: Value = None
    rhs: Value = None

    def operands(self) -> list[Value]:
        return [self.lhs, self.rhs]

    def __str__(self) -> str:
        return f"{self.result} = icmp {self.op} {self.lhs}, {self.rhs}"


@dataclass
class Cast(Instruction):
    value: Value = None

    def operands(self) -> list[Value]:
        return [self.value]

    def __str__(self) -> str:
        return f"{self.result} = cast {self.value} to {self.result.type}"


@dataclass
class Call(Instruction):
    callee: str = ""
    args: tuple[Value, ...] = ()

    def operands(self) -> list[Value]:
        return list(self.args)

    def __str__(self) -> str:
        rendered = ", ".join(str(a) for a in self.args)
        target = f"{self.result} = " if self.result is not None else ""
        return f"{target}call @{self.callee}({rendered})"


@dataclass
class FenceInstr(Instruction):
    kind: str = "lfence"

    def __str__(self) -> str:
        return self.kind


@dataclass
class Branch(Instruction):
    cond: Value = None
    then_label: str = ""
    else_label: str = ""

    def operands(self) -> list[Value]:
        return [self.cond]

    def __str__(self) -> str:
        return f"br {self.cond}, %{self.then_label}, %{self.else_label}"


@dataclass
class Jump(Instruction):
    label: str = ""

    def __str__(self) -> str:
        return f"br %{self.label}"


@dataclass
class Ret(Instruction):
    value: Value | None = None

    def operands(self) -> list[Value]:
        return [self.value] if self.value is not None else []

    def __str__(self) -> str:
        return f"ret {self.value}" if self.value is not None else "ret void"
