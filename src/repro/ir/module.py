"""IR containers: basic blocks, functions, modules, and a verifier."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IRVerificationError
from repro.ir.instructions import (
    Alloca,
    Branch,
    Instruction,
    Jump,
    Ret,
)
from repro.ir.types import Type


@dataclass
class BasicBlock:
    label: str
    instructions: list[Instruction] = field(default_factory=list)

    @property
    def terminator(self) -> Instruction | None:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> list[str]:
        terminator = self.terminator
        if isinstance(terminator, Branch):
            return [terminator.then_label, terminator.else_label]
        if isinstance(terminator, Jump):
            return [terminator.label]
        return []

    def body(self) -> list[Instruction]:
        """Instructions excluding the terminator."""
        if self.terminator is not None:
            return self.instructions[:-1]
        return list(self.instructions)


@dataclass
class Function:
    name: str
    params: list[tuple[str, Type]]
    return_type: Type
    blocks: list[BasicBlock] = field(default_factory=list)
    is_public: bool = True
    # [start, end) of the definition in ``Module.tokens``; None for
    # functions no parser produced (A-CFG copies, hand-built IR).
    span: tuple[int, int] | None = field(default=None, compare=False)

    def block(self, label: str) -> BasicBlock:
        for block in self.blocks:
            if block.label == label:
                return block
        raise KeyError(f"no block {label!r} in function {self.name}")

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def all_instructions(self) -> list[Instruction]:
        return [ins for block in self.blocks for ins in block.instructions]

    def instruction_count(self) -> int:
        return sum(len(block.instructions) for block in self.blocks)

    def cfg_edges(self) -> list[tuple[str, str]]:
        return [
            (block.label, successor)
            for block in self.blocks
            for successor in block.successors()
        ]

    def is_dag(self) -> bool:
        """True when the CFG has no back edge (after A-CFG construction)."""
        from repro.relations import Relation

        return Relation(self.cfg_edges()).is_acyclic()


@dataclass
class GlobalVariable:
    name: str
    type: Type
    initializer: object = None
    is_const: bool = False


@dataclass
class Module:
    name: str = ""
    functions: dict[str, Function] = field(default_factory=dict)
    globals: dict[str, GlobalVariable] = field(default_factory=dict)
    structs: dict[str, Type] = field(default_factory=dict)
    # The source tokens ``compile_c`` parsed (empty for hand-built IR).
    tokens: list = field(default_factory=list, repr=False, compare=False)
    # What ``compile_c`` of an edited version of this unit may reuse
    # (``repro.minic.lower.UnitMemo``); None for hand-built IR.
    memo: object = field(default=None, repr=False, compare=False)

    def add_function(self, function: Function) -> None:
        self.functions[function.name] = function

    def add_global(self, variable: GlobalVariable) -> None:
        self.globals[variable.name] = variable

    def public_functions(self) -> list[Function]:
        return [f for f in self.functions.values() if f.is_public]


def verify_function(function: Function) -> None:
    """Check structural invariants; raises IRVerificationError."""
    if not function.blocks:
        raise IRVerificationError(f"{function.name}: function has no blocks")
    labels = [block.label for block in function.blocks]
    if len(labels) != len(set(labels)):
        raise IRVerificationError(f"{function.name}: duplicate block labels")
    label_set = set(labels)
    defined: set[str] = {name for name, _ in function.params}
    for block in function.blocks:
        if block.terminator is None:
            raise IRVerificationError(
                f"{function.name}/{block.label}: missing terminator"
            )
        for i, ins in enumerate(block.instructions):
            if ins.is_terminator and i != len(block.instructions) - 1:
                raise IRVerificationError(
                    f"{function.name}/{block.label}: terminator mid-block"
                )
            if ins.result is not None:
                if ins.result.name in defined and not isinstance(ins, Alloca):
                    raise IRVerificationError(
                        f"{function.name}: temp %{ins.result.name} redefined"
                    )
                defined.add(ins.result.name)
        for successor in block.successors():
            if successor not in label_set:
                raise IRVerificationError(
                    f"{function.name}/{block.label}: unknown successor {successor!r}"
                )
    has_ret = any(
        isinstance(block.terminator, Ret) for block in function.blocks
    )
    if not has_ret:
        raise IRVerificationError(f"{function.name}: no return block")


def verify_module(module: Module) -> None:
    for function in module.functions.values():
        verify_function(function)
