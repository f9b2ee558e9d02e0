"""AST for the mini-C frontend."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.types import Type


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


class Expr:
    pass


@dataclass
class IntLiteral(Expr):
    value: int


@dataclass
class StringLiteral(Expr):
    value: str


@dataclass
class Name(Expr):
    ident: str


@dataclass
class Unary(Expr):
    op: str  # ! ~ - * & ++pre --pre
    operand: Expr


@dataclass
class Postfix(Expr):
    op: str  # ++ --
    operand: Expr


@dataclass
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@dataclass
class Logical(Expr):
    op: str  # && ||
    lhs: Expr
    rhs: Expr


@dataclass
class Conditional(Expr):
    cond: Expr
    then: Expr
    otherwise: Expr


@dataclass
class Assign(Expr):
    op: str  # = += -= &= |= ^= <<= >>= *= /= %=
    target: Expr
    value: Expr


@dataclass
class Index(Expr):
    base: Expr
    index: Expr


@dataclass
class Member(Expr):
    base: Expr
    field: str
    arrow: bool  # True: ->, False: .


@dataclass
class CallExpr(Expr):
    callee: str
    args: list[Expr]


@dataclass
class CastExpr(Expr):
    type: Type
    operand: Expr


@dataclass
class SizeofExpr(Expr):
    type: Type | None
    operand: Expr | None


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------


class Stmt:
    pass


@dataclass
class Declaration(Stmt):
    name: str
    type: Type
    init: Expr | list[Expr] | None = None
    is_register: bool = False


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class Compound(Stmt):
    statements: list[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    otherwise: Stmt | None = None


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass
class DoWhile(Stmt):
    body: Stmt
    cond: Expr


@dataclass
class For(Stmt):
    init: Stmt | None
    cond: Expr | None
    step: Expr | None
    body: Stmt


@dataclass
class Return(Stmt):
    value: Expr | None = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# ----------------------------------------------------------------------
# Top level
# ----------------------------------------------------------------------


@dataclass
class FunctionDef:
    name: str
    return_type: Type
    params: list[tuple[str, Type]]
    body: Compound | None  # None: declaration only (undefined function)
    is_static: bool = False
    # [start, end) token indices of a definition; None for a prototype.
    span: tuple[int, int] | None = None
    # An earlier compile's definition with the same tokens; its body was
    # not parsed (``body`` is None until the lowering needs it).
    reuse: object = None


@dataclass
class GlobalDef:
    name: str
    type: Type
    init: Expr | list[Expr] | str | None = None
    is_const: bool = False


@dataclass
class TranslationUnit:
    functions: list[FunctionDef] = field(default_factory=list)
    globals: list[GlobalDef] = field(default_factory=list)
    structs: dict[str, Type] = field(default_factory=dict)
    tokens: list = field(default_factory=list)  # what the parser read
