"""Recursive-descent parser for the mini-C subset.

Supported: fixed-width integer types, pointers, arrays, structs, global
definitions with initializers, functions, if/else, while, do-while, for,
break/continue, return, the full C expression grammar (assignment,
conditional, short-circuit logic, bitwise, shifts, comparisons,
arithmetic, casts, sizeof, pre/post increment, member access, calls).

Struct *references* are represented as ``StructType(name, ())``; the
complete field list lives in ``TranslationUnit.structs`` so forward
references work.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.ir.types import (
    I8,
    I16,
    I32,
    I64,
    U8,
    U16,
    U32,
    U64,
    VOID,
    ArrayType,
    IntType,
    PointerType,
    StructType,
    Type,
    pointer_to,
)
from repro.minic.cast import (
    Assign,
    Binary,
    Break,
    CallExpr,
    CastExpr,
    Compound,
    Conditional,
    Continue,
    Declaration,
    DoWhile,
    Expr,
    ExprStmt,
    For,
    FunctionDef,
    GlobalDef,
    If,
    Index,
    IntLiteral,
    Logical,
    Member,
    Name,
    Postfix,
    Return,
    SizeofExpr,
    Stmt,
    StringLiteral,
    TranslationUnit,
    Unary,
    While,
)
from repro.minic.lexer import Token, tokenize

_BASE_TYPES = {
    "void": VOID,
    "char": I8, "bool": I8,
    "int8_t": I8, "int16_t": I16, "int32_t": I32, "int64_t": I64,
    "uint8_t": U8, "uint16_t": U16, "uint32_t": U32, "uint64_t": U64,
    "size_t": U64, "ssize_t": I64, "uintptr_t": U64, "intptr_t": I64,
}

_TYPE_STARTERS = set(_BASE_TYPES) | {
    "unsigned", "signed", "short", "long", "int", "struct",
    "const", "static", "register", "volatile", "inline", "extern",
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

# Binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "||": 1, "&&": 2,
    "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


class Parser:
    """``previous`` is a module ``compile_c`` made from an earlier version
    of the same unit: a definition whose tokens equal one of its
    definitions is not parsed again (:meth:`_reusable`)."""

    def __init__(self, tokens: list[Token], previous=None):
        self.tokens = tokens
        self.position = 0
        self.unit = TranslationUnit(tokens=tokens)
        self.previous = previous

    # -- token helpers ----------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.current
        self.position += 1
        return token

    def check(self, text: str) -> bool:
        return self.current.text == text and self.current.kind in ("op", "keyword")

    def accept(self, text: str) -> bool:
        if self.check(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.check(text):
            raise ParseError(
                f"expected {text!r}, found {self.current.text!r}",
                self.current.line,
            )
        return self.advance()

    def expect_ident(self) -> str:
        if self.current.kind != "ident":
            raise ParseError(
                f"expected identifier, found {self.current.text!r}",
                self.current.line,
            )
        return self.advance().text

    # -- types -------------------------------------------------------------

    def at_type(self) -> bool:
        return self.current.kind == "keyword" and self.current.text in _TYPE_STARTERS

    def parse_type_specifier(self) -> tuple[Type, dict[str, bool]]:
        """Parse qualifiers + base type (no pointers/arrays)."""
        qualifiers = {"const": False, "static": False, "register": False}
        unsigned = False
        signed = False
        longs = 0
        short = False
        base: Type | None = None
        while True:
            text = self.current.text
            if text in ("const", "volatile", "inline", "extern"):
                qualifiers["const"] |= text == "const"
                self.advance()
            elif text in ("static",):
                qualifiers["static"] = True
                self.advance()
            elif text == "register":
                qualifiers["register"] = True
                self.advance()
            elif text == "unsigned":
                unsigned = True
                self.advance()
            elif text == "signed":
                signed = True
                self.advance()
            elif text == "long":
                longs += 1
                self.advance()
            elif text == "short":
                short = True
                self.advance()
            elif text == "int":
                self.advance()
                if base is None:
                    base = I32
            elif text == "struct":
                self.advance()
                name = self.expect_ident()
                if self.check("{"):
                    base = self._parse_struct_body(name)
                else:
                    base = StructType(name, ())
            elif text in _BASE_TYPES:
                self.advance()
                base = _BASE_TYPES[text]
            else:
                break
        if base is None or (isinstance(base, IntType) and (longs or short or unsigned or signed)):
            bits = 64 if longs else (16 if short else 32)
            base = IntType(bits, signed=not unsigned)
        return base, qualifiers

    def _parse_struct_body(self, name: str) -> StructType:
        self.expect("{")
        fields: list[tuple[str, Type]] = []
        while not self.accept("}"):
            field_base, _ = self.parse_type_specifier()
            while True:
                field_type = field_base
                while self.accept("*"):
                    field_type = pointer_to(field_type)
                field_name = self.expect_ident()
                while self.accept("["):
                    count = self._parse_array_bound()
                    field_type = ArrayType(field_type, count)
                fields.append((field_name, field_type))
                if not self.accept(","):
                    break
            self.expect(";")
        struct = StructType(name, tuple(fields))
        self.unit.structs[name] = struct
        return struct

    def _parse_array_bound(self) -> int:
        if self.accept("]"):
            return 0  # incomplete array (pointer-like)
        expr = self.parse_expression()
        self.expect("]")
        value = _const_fold(expr)
        if value is None:
            raise ParseError("array bound must be constant", self.current.line)
        return value

    def parse_declarator(self, base: Type) -> tuple[str, Type]:
        type_ = base
        while self.accept("*"):
            type_ = pointer_to(type_)
        name = self.expect_ident()
        dims: list[int] = []
        while self.accept("["):
            dims.append(self._parse_array_bound())
        for count in reversed(dims):
            type_ = ArrayType(type_, count)
        return name, type_

    # -- top level -----------------------------------------------------------

    def parse_unit(self) -> TranslationUnit:
        while self.current.kind != "eof":
            if self.accept(";"):
                continue
            if self.check("typedef"):
                raise ParseError("typedef is not supported; use the "
                                 "built-in fixed-width types",
                                 self.current.line)
            start = self.position
            base, qualifiers = self.parse_type_specifier()
            if isinstance(base, StructType) and self.accept(";"):
                continue  # bare struct definition
            name, type_ = self.parse_declarator(base)
            if self.check("("):
                self._parse_function(name, type_, qualifiers, start)
            else:
                self._parse_global_tail(name, type_, qualifiers)
        return self.unit

    def _parse_function(self, name: str, return_type: Type,
                        qualifiers: dict[str, bool], start: int) -> None:
        reused = self._reusable(name, start)
        if reused is not None:
            # The lowering reuses the earlier definition, or parses this
            # one from ``span`` if the rest of the unit moved under it.
            first, last = reused.function.span
            end = start + last - first
            self.position = end
            self.unit.functions.append(FunctionDef(
                name=name, return_type=return_type,
                params=list(reused.function.params), body=None,
                is_static=qualifiers["static"], span=(start, end),
                reuse=reused))
            return
        self.expect("(")
        params: list[tuple[str, Type]] = []
        if not self.check(")"):
            if self.check("void") and self.tokens[self.position + 1].text == ")":
                self.advance()
            else:
                while True:
                    param_base, _ = self.parse_type_specifier()
                    param_name, param_type = self.parse_declarator(param_base)
                    if isinstance(param_type, ArrayType):
                        param_type = pointer_to(param_type.element)
                    params.append((param_name, param_type))
                    if not self.accept(","):
                        break
        self.expect(")")
        if self.accept(";"):
            self.unit.functions.append(FunctionDef(
                name=name, return_type=return_type, params=params,
                body=None, is_static=qualifiers["static"]))
            return
        body = self.parse_compound()
        self.unit.functions.append(FunctionDef(
            name=name, return_type=return_type, params=params,
            body=body, is_static=qualifiers["static"],
            span=(start, self.position)))

    def _reusable(self, name: str, start: int):
        """The earlier definition of ``name`` whose (kind, text) tokens
        the tokens at ``start`` repeat, if it defines no struct (parsing
        its body would have registered one)."""
        if self.previous is None:
            return None
        tokens, old = self.tokens, self.previous.tokens
        for definition in self.previous.memo.definitions.get(name, ()):
            first, end = definition.function.span
            if start + end - first > len(tokens) - 1:
                continue  # would run past the eof token
            if all(new.kind == was.kind and new.text == was.text
                   for new, was in zip(tokens[start:start + end - first],
                                       old[first:end])) \
                    and not _defines_struct(old[first:end]):
                return definition
        return None

    def definition_at(self, start: int) -> FunctionDef:
        """Parse the one top-level function definition at ``start``."""
        self.position = start
        base, qualifiers = self.parse_type_specifier()
        name, type_ = self.parse_declarator(base)
        self._parse_function(name, type_, qualifiers, start)
        return self.unit.functions[-1]

    def _parse_global_tail(self, name: str, type_: Type,
                           qualifiers: dict[str, bool]) -> None:
        while True:
            init = None
            if self.accept("="):
                init = self._parse_initializer()
            self.unit.globals.append(GlobalDef(
                name=name, type=type_, init=init,
                is_const=qualifiers["const"]))
            if not self.accept(","):
                break
            # Further declarators share the base type of the first.
            base = type_
            while isinstance(base, (PointerType, ArrayType)):
                base = base.pointee if isinstance(base, PointerType) else base.element
            name, type_ = self.parse_declarator(base)
        self.expect(";")

    def _parse_initializer(self):
        if self.accept("{"):
            elements: list[Expr] = []
            while not self.accept("}"):
                elements.append(self.parse_assignment())
                if not self.check("}"):
                    self.expect(",")
            return elements
        if self.current.kind == "string":
            return StringLiteral(self.advance().value)
        return self.parse_assignment()

    # -- statements ------------------------------------------------------------

    def parse_compound(self) -> Compound:
        self.expect("{")
        statements: list[Stmt] = []
        while not self.accept("}"):
            statements.append(self.parse_statement())
        return Compound(statements)

    def parse_statement(self) -> Stmt:
        if self.check("{"):
            return self.parse_compound()
        if self.accept(";"):
            return Compound([])
        if self.check("if"):
            return self._parse_if()
        if self.check("while"):
            return self._parse_while()
        if self.check("do"):
            return self._parse_do_while()
        if self.check("for"):
            return self._parse_for()
        if self.accept("return"):
            value = None if self.check(";") else self.parse_expression()
            self.expect(";")
            return Return(value)
        if self.accept("break"):
            self.expect(";")
            return Break()
        if self.accept("continue"):
            self.expect(";")
            return Continue()
        if self.at_type():
            return self._parse_local_declaration()
        expr = self.parse_expression()
        self.expect(";")
        return ExprStmt(expr)

    def _parse_if(self) -> If:
        self.expect("if")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        then = self.parse_statement()
        otherwise = self.parse_statement() if self.accept("else") else None
        return If(cond, then, otherwise)

    def _parse_while(self) -> While:
        self.expect("while")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        return While(cond, self.parse_statement())

    def _parse_do_while(self) -> DoWhile:
        self.expect("do")
        body = self.parse_statement()
        self.expect("while")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        self.expect(";")
        return DoWhile(body, cond)

    def _parse_for(self) -> For:
        self.expect("for")
        self.expect("(")
        init: Stmt | None = None
        if not self.accept(";"):
            if self.at_type():
                init = self._parse_local_declaration()
            else:
                init = ExprStmt(self.parse_expression())
                self.expect(";")
        cond = None if self.check(";") else self.parse_expression()
        self.expect(";")
        step = None if self.check(")") else self.parse_expression()
        self.expect(")")
        return For(init, cond, step, self.parse_statement())

    def _parse_local_declaration(self) -> Stmt:
        base, qualifiers = self.parse_type_specifier()
        declarations: list[Stmt] = []
        while True:
            name, type_ = self.parse_declarator(base)
            init = self._parse_initializer() if self.accept("=") else None
            declarations.append(Declaration(
                name=name, type=type_, init=init,
                is_register=qualifiers["register"]))
            if not self.accept(","):
                break
        self.expect(";")
        if len(declarations) == 1:
            return declarations[0]
        return Compound(declarations)

    # -- expressions -----------------------------------------------------------

    def parse_expression(self) -> Expr:
        expr = self.parse_assignment()
        while self.accept(","):
            expr = Binary(",", expr, self.parse_assignment())
        return expr

    def parse_assignment(self) -> Expr:
        target = self.parse_conditional()
        if self.current.kind == "op" and self.current.text in _ASSIGN_OPS:
            op = self.advance().text
            value = self.parse_assignment()
            return Assign(op, target, value)
        return target

    def parse_conditional(self) -> Expr:
        cond = self.parse_binary(1)
        if self.accept("?"):
            then = self.parse_expression()
            self.expect(":")
            otherwise = self.parse_conditional()
            return Conditional(cond, then, otherwise)
        return cond

    def parse_binary(self, min_precedence: int) -> Expr:
        lhs = self.parse_unary()
        while True:
            op = self.current.text
            precedence = _PRECEDENCE.get(op) if self.current.kind == "op" else None
            if precedence is None or precedence < min_precedence:
                return lhs
            self.advance()
            rhs = self.parse_binary(precedence + 1)
            if op in ("&&", "||"):
                lhs = Logical(op, lhs, rhs)
            else:
                lhs = Binary(op, lhs, rhs)

    def parse_unary(self) -> Expr:
        if self.current.kind == "op" and self.current.text in ("!", "~", "-", "+", "*", "&"):
            op = self.advance().text
            if op == "+":
                return self.parse_unary()
            return Unary(op, self.parse_unary())
        if self.accept("++"):
            return Unary("++", self.parse_unary())
        if self.accept("--"):
            return Unary("--", self.parse_unary())
        if self.check("sizeof"):
            self.advance()
            self.expect("(")
            if self.at_type():
                base, _ = self.parse_type_specifier()
                while self.accept("*"):
                    base = pointer_to(base)
                self.expect(")")
                return SizeofExpr(base, None)
            operand = self.parse_expression()
            self.expect(")")
            return SizeofExpr(None, operand)
        # Cast: '(' type ')' unary
        if self.check("(") and self.tokens[self.position + 1].kind == "keyword" \
                and self.tokens[self.position + 1].text in _TYPE_STARTERS:
            self.expect("(")
            base, _ = self.parse_type_specifier()
            while self.accept("*"):
                base = pointer_to(base)
            self.expect(")")
            return CastExpr(base, self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while True:
            if self.accept("["):
                index = self.parse_expression()
                self.expect("]")
                expr = Index(expr, index)
            elif self.check("(") and isinstance(expr, Name):
                self.advance()
                args: list[Expr] = []
                if not self.check(")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept(","):
                            break
                self.expect(")")
                expr = CallExpr(expr.ident, args)
            elif self.accept("."):
                expr = Member(expr, self.expect_ident(), arrow=False)
            elif self.accept("->"):
                expr = Member(expr, self.expect_ident(), arrow=True)
            elif self.accept("++"):
                expr = Postfix("++", expr)
            elif self.accept("--"):
                expr = Postfix("--", expr)
            else:
                return expr

    def parse_primary(self) -> Expr:
        token = self.current
        if token.kind == "number":
            self.advance()
            return IntLiteral(token.value)
        if token.kind == "string":
            self.advance()
            return StringLiteral(token.value)
        if token.kind == "ident":
            self.advance()
            return Name(token.text)
        if self.accept("("):
            expr = self.parse_expression()
            self.expect(")")
            return expr
        raise ParseError(
            f"unexpected token {token.text!r} in expression", token.line
        )


def _const_fold(expr: Expr) -> int | None:
    if isinstance(expr, IntLiteral):
        return expr.value
    if isinstance(expr, Unary) and expr.op == "-":
        inner = _const_fold(expr.operand)
        return -inner if inner is not None else None
    if isinstance(expr, Binary):
        lhs, rhs = _const_fold(expr.lhs), _const_fold(expr.rhs)
        if lhs is None or rhs is None:
            return None
        ops = {
            "+": lambda: lhs + rhs, "-": lambda: lhs - rhs,
            "*": lambda: lhs * rhs, "/": lambda: lhs // rhs if rhs else None,
            "%": lambda: lhs % rhs if rhs else None,
            "<<": lambda: lhs << rhs, ">>": lambda: lhs >> rhs,
            "&": lambda: lhs & rhs, "|": lambda: lhs | rhs,
            "^": lambda: lhs ^ rhs,
        }
        handler = ops.get(expr.op)
        return handler() if handler else None
    return None


def _defines_struct(tokens: list[Token]) -> bool:
    """Does ``struct NAME {`` occur in ``tokens``?"""
    return any(token.kind == "keyword" and token.text == "struct"
               and tokens[i + 2].text == "{"
               for i, token in enumerate(tokens[:-2]))


def parse_c(source: str, previous=None) -> TranslationUnit:
    """Parse mini-C source into a translation unit that keeps the token
    list it was parsed from (each definition's ``span`` indexes it).
    ``previous``: see :class:`Parser`."""
    return Parser(tokenize(source), previous).parse_unit()
