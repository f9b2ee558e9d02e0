"""Lowering mini-C to IR, Clang -O0 style.

Faithful to how Clou sees code (§5): every local (and every parameter)
lives in a stack ``alloca``; every use round-trips through load/store.
This is load-bearing for the reproduction — the paper's STL findings
(e.g. a bypassable spill of ``idx``, and Clang ignoring ``register``)
exist precisely because of -O0 stack traffic, and our lowering
reproduces them (the ``register`` keyword is parsed and deliberately
ignored, as §6.1 observes Clang -O0 does).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import LoweringError
from repro.ir import (
    I1,
    I32,
    I64,
    U64,
    ArrayType,
    Function,
    GetElementPtr,
    GlobalRef,
    GlobalVariable,
    IRBuilder,
    IntType,
    Module,
    PointerType,
    StructType,
    Temp,
    Type,
    Value,
    VoidType,
    pointer_to,
    verify_function,
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
from repro.minic.cparser import Parser, parse_c

_FENCE_BUILTINS = {"lfence", "mfence", "__builtin_lfence", "__builtin_mfence",
                   "_mm_lfence", "_mm_mfence"}

_COMPOUND_OPS = {"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
                 "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>"}

_BINOP_NAMES = {"+": "add", "-": "sub", "*": "mul", "&": "and", "|": "or",
                "^": "xor", "<<": "shl"}

_CMP_OPS = {"==": "eq", "!=": "ne", "<": "lt", ">": "gt", "<=": "le", ">=": "ge"}


def _is_unsigned(type_: Type) -> bool:
    return isinstance(type_, IntType) and not type_.signed


def _arith_type(lhs: Value, rhs: Value) -> Type:
    """C's usual arithmetic conversions, simplified: the wider integer
    type wins; at equal width, unsigned wins.  Pointers dominate."""
    a, b = lhs.type, rhs.type
    if isinstance(a, PointerType):
        return a
    if isinstance(b, PointerType):
        return b
    if not isinstance(a, IntType) or not isinstance(b, IntType):
        return a
    if a.bits != b.bits:
        return a if a.bits > b.bits else b
    if a.signed != b.signed:
        return a if not a.signed else b
    return a


class FunctionLowerer:
    def __init__(self, lowerer: "ModuleLowerer", definition: FunctionDef):
        self.module_lowerer = lowerer
        self.definition = definition
        self.function = Function(
            name=definition.name,
            params=list(definition.params),
            return_type=definition.return_type,
            is_public=not definition.is_static,
            span=definition.span,
        )
        self.builder = IRBuilder(self.function)
        self.scope: list[dict[str, Value]] = [{}]
        self.var_types: dict[str, Type] = {}
        self.retval: Temp | None = None
        self.exit_label = "exit"
        self.loop_stack: list[tuple[str, str]] = []  # (continue, break)

    # -- scope -----------------------------------------------------------

    def lookup(self, name: str) -> Value:
        for frame in reversed(self.scope):
            if name in frame:
                return frame[name]
        module = self.module_lowerer.module
        if name in module.globals:
            variable = module.globals[name]
            return GlobalRef(name, pointer_to(variable.type))
        raise LoweringError(
            f"{self.function.name}: undeclared identifier {name!r}"
        )

    def declare(self, name: str, pointer: Value) -> None:
        self.scope[-1][name] = pointer

    # -- struct resolution --------------------------------------------------

    def resolve_struct(self, type_: Type) -> StructType:
        if not isinstance(type_, StructType):
            raise LoweringError(f"expected struct type, got {type_}")
        registered = self.module_lowerer.unit.structs.get(type_.name)
        if registered is None:
            raise LoweringError(f"struct {type_.name} is not defined")
        return registered

    # -- main entry -------------------------------------------------------

    def lower(self) -> Function:
        builder = self.builder
        builder.start_block("entry")
        for name, type_ in self.definition.params:
            slot = builder.alloca(type_, name)
            from repro.ir import Argument

            builder.store(Argument(name, type_), slot)
            self.declare(name, slot)
        if not isinstance(self.definition.return_type, VoidType):
            self.retval = builder.alloca(self.definition.return_type, "retval")

        self.lower_statement(self.definition.body)
        if not builder.is_terminated:
            builder.jump(self.exit_label)

        builder.start_block(self.exit_label)
        if self.retval is not None:
            builder.ret(builder.load(self.retval))
        else:
            builder.ret()
        return self.function

    # -- statements -----------------------------------------------------------

    def lower_statement(self, stmt: Stmt) -> None:
        builder = self.builder
        if isinstance(stmt, Compound):
            self.scope.append({})
            for inner in stmt.statements:
                if builder.is_terminated:
                    break  # unreachable code is dropped
                self.lower_statement(inner)
            self.scope.pop()
        elif isinstance(stmt, Declaration):
            slot = builder.alloca(stmt.type, stmt.name)
            self.declare(stmt.name, slot)
            if stmt.init is not None:
                self._lower_initializer(slot, stmt.type, stmt.init)
        elif isinstance(stmt, ExprStmt):
            self.rvalue(stmt.expr)
        elif isinstance(stmt, Return):
            if stmt.value is not None and self.retval is not None:
                value = self.rvalue(stmt.value)
                builder.store(self._coerce(value, self.definition.return_type),
                              self.retval)
            builder.jump(self.exit_label)
        elif isinstance(stmt, If):
            self._lower_if(stmt)
        elif isinstance(stmt, While):
            self._lower_while(stmt)
        elif isinstance(stmt, DoWhile):
            self._lower_do_while(stmt)
        elif isinstance(stmt, For):
            self._lower_for(stmt)
        elif isinstance(stmt, Break):
            if not self.loop_stack:
                raise LoweringError("break outside loop")
            builder.jump(self.loop_stack[-1][1])
        elif isinstance(stmt, Continue):
            if not self.loop_stack:
                raise LoweringError("continue outside loop")
            builder.jump(self.loop_stack[-1][0])
        else:
            raise LoweringError(f"unsupported statement {type(stmt).__name__}")

    def _lower_initializer(self, slot: Value, type_: Type, init) -> None:
        builder = self.builder
        if isinstance(init, list):
            if not isinstance(type_, ArrayType):
                raise LoweringError("brace initializer on non-array")
            for i, element in enumerate(init):
                target = builder.gep(slot, [builder.const(0, I32),
                                            builder.const(i, I32)])
                value = self.rvalue(element)
                builder.store(self._coerce(value, type_.element), target)
            return
        value = self.rvalue(init)
        if isinstance(type_, ArrayType):
            raise LoweringError("scalar initializer on array")
        builder.store(self._coerce(value, type_), slot)

    def _lower_if(self, stmt: If) -> None:
        builder = self.builder
        then_label = builder.new_label("if.then")
        else_label = builder.new_label("if.else") if stmt.otherwise else None
        end_label = builder.new_label("if.end")
        cond = self._as_bool(self.rvalue(stmt.cond))
        builder.branch(cond, then_label, else_label or end_label)

        builder.start_block(then_label)
        self.lower_statement(stmt.then)
        if not builder.is_terminated:
            builder.jump(end_label)
        if else_label is not None:
            builder.start_block(else_label)
            self.lower_statement(stmt.otherwise)
            if not builder.is_terminated:
                builder.jump(end_label)
        builder.start_block(end_label)

    def _lower_while(self, stmt: While) -> None:
        builder = self.builder
        cond_label = builder.new_label("while.cond")
        body_label = builder.new_label("while.body")
        end_label = builder.new_label("while.end")
        builder.jump(cond_label)
        builder.start_block(cond_label)
        cond = self._as_bool(self.rvalue(stmt.cond))
        builder.branch(cond, body_label, end_label)
        builder.start_block(body_label)
        self.loop_stack.append((cond_label, end_label))
        self.lower_statement(stmt.body)
        self.loop_stack.pop()
        if not builder.is_terminated:
            builder.jump(cond_label)
        builder.start_block(end_label)

    def _lower_do_while(self, stmt: DoWhile) -> None:
        builder = self.builder
        body_label = builder.new_label("do.body")
        cond_label = builder.new_label("do.cond")
        end_label = builder.new_label("do.end")
        builder.jump(body_label)
        builder.start_block(body_label)
        self.loop_stack.append((cond_label, end_label))
        self.lower_statement(stmt.body)
        self.loop_stack.pop()
        if not builder.is_terminated:
            builder.jump(cond_label)
        builder.start_block(cond_label)
        cond = self._as_bool(self.rvalue(stmt.cond))
        builder.branch(cond, body_label, end_label)
        builder.start_block(end_label)

    def _lower_for(self, stmt: For) -> None:
        builder = self.builder
        self.scope.append({})
        if stmt.init is not None:
            self.lower_statement(stmt.init)
        cond_label = builder.new_label("for.cond")
        body_label = builder.new_label("for.body")
        step_label = builder.new_label("for.step")
        end_label = builder.new_label("for.end")
        builder.jump(cond_label)
        builder.start_block(cond_label)
        if stmt.cond is not None:
            cond = self._as_bool(self.rvalue(stmt.cond))
            builder.branch(cond, body_label, end_label)
        else:
            builder.jump(body_label)
        builder.start_block(body_label)
        self.loop_stack.append((step_label, end_label))
        self.lower_statement(stmt.body)
        self.loop_stack.pop()
        if not builder.is_terminated:
            builder.jump(step_label)
        builder.start_block(step_label)
        if stmt.step is not None:
            self.rvalue(stmt.step)
        builder.jump(cond_label)
        builder.start_block(end_label)
        self.scope.pop()

    # -- lvalues ----------------------------------------------------------

    def lvalue(self, expr: Expr) -> Value:
        """Returns a pointer to the storage the expression designates."""
        builder = self.builder
        if isinstance(expr, Name):
            return self.lookup(expr.ident)
        if isinstance(expr, Unary) and expr.op == "*":
            return self.rvalue(expr.operand)
        if isinstance(expr, Index):
            base_ptr = self._array_base_pointer(expr.base)
            index = self.rvalue(expr.index)
            pointee = base_ptr.type.pointee
            if isinstance(pointee, ArrayType):
                return builder.gep(base_ptr, [builder.const(0, I32), index])
            return builder.gep(base_ptr, [index])
        if isinstance(expr, Member):
            if expr.arrow:
                struct_ptr = self.rvalue(expr.base)
            else:
                struct_ptr = self.lvalue(expr.base)
            if not isinstance(struct_ptr.type, PointerType):
                raise LoweringError("member access on non-pointer base")
            struct = self.resolve_struct(struct_ptr.type.pointee)
            field_index = struct.field_index(expr.field)
            field_type = struct.fields[field_index][1]
            result = builder.fresh(pointer_to(field_type), hint="field")
            builder.emit(GetElementPtr(
                result=result,
                base=struct_ptr,
                indices=(builder.const(0, I32), builder.const(field_index, I32)),
                element=field_type,
            ))
            return result
        raise LoweringError(
            f"expression is not an lvalue: {type(expr).__name__}"
        )

    def _array_base_pointer(self, base: Expr) -> Value:
        """Pointer used as the base of an indexing operation.

        Arrays index in place; pointer variables are loaded first.
        """
        if isinstance(base, (Name, Index, Member)) or (
            isinstance(base, Unary) and base.op == "*"
        ):
            pointer = self.lvalue(base)
            pointee = pointer.type.pointee
            if isinstance(pointee, ArrayType):
                return pointer
            if isinstance(pointee, PointerType):
                return self.builder.load(pointer)
            return pointer
        value = self.rvalue(base)
        if not isinstance(value.type, PointerType):
            raise LoweringError("indexing a non-pointer expression")
        return value

    # -- rvalues -----------------------------------------------------------

    def rvalue(self, expr: Expr) -> Value:
        builder = self.builder
        if isinstance(expr, IntLiteral):
            type_ = I64 if expr.value > 0x7FFFFFFF else I32
            return builder.const(expr.value, type_)
        if isinstance(expr, StringLiteral):
            return self.module_lowerer.intern_string(expr.value, builder)
        if isinstance(expr, Name):
            pointer = self.lookup(expr.ident)
            pointee = pointer.type.pointee
            if isinstance(pointee, ArrayType):
                # Array-to-pointer decay.
                return builder.gep(pointer, [builder.const(0, I32),
                                             builder.const(0, I32)])
            return builder.load(pointer)
        if isinstance(expr, (Index, Member)):
            pointer = self.lvalue(expr)
            if isinstance(pointer.type.pointee, ArrayType):
                return builder.gep(pointer, [builder.const(0, I32),
                                             builder.const(0, I32)])
            return builder.load(pointer)
        if isinstance(expr, Unary):
            return self._lower_unary(expr)
        if isinstance(expr, Postfix):
            pointer = self.lvalue(expr.operand)
            old = builder.load(pointer)
            delta = builder.const(1, old.type if isinstance(old.type, IntType) else I32)
            op = "add" if expr.op == "++" else "sub"
            new = builder.binop(op, old, delta)
            builder.store(new, pointer)
            return old
        if isinstance(expr, Binary):
            return self._lower_binary(expr)
        if isinstance(expr, Logical):
            return self._lower_logical(expr)
        if isinstance(expr, Conditional):
            return self._lower_conditional(expr)
        if isinstance(expr, Assign):
            return self._lower_assign(expr)
        if isinstance(expr, CallExpr):
            return self._lower_call(expr)
        if isinstance(expr, CastExpr):
            value = self.rvalue(expr.operand)
            return builder.cast(value, expr.type)
        if isinstance(expr, SizeofExpr):
            if expr.type is not None:
                return builder.const(expr.type.size_bytes(), U64)
            # sizeof(expr): size of the expression's type, best effort.
            value_type = self._expr_type(expr.operand)
            return builder.const(value_type.size_bytes(), U64)
        raise LoweringError(f"unsupported expression {type(expr).__name__}")

    def _expr_type(self, expr: Expr) -> Type:
        if isinstance(expr, Name):
            return self.lookup(expr.ident).type.pointee
        if isinstance(expr, (Index, Member, Unary)):
            try:
                return self.lvalue(expr).type.pointee
            except LoweringError:
                return I32
        return I32

    def _lower_unary(self, expr: Unary) -> Value:
        builder = self.builder
        if expr.op == "&":
            return self.lvalue(expr.operand)
        if expr.op == "*":
            pointer = self.rvalue(expr.operand)
            return builder.load(pointer)
        if expr.op in ("++", "--"):
            pointer = self.lvalue(expr.operand)
            old = builder.load(pointer)
            delta = builder.const(1, old.type if isinstance(old.type, IntType) else I32)
            new = builder.binop("add" if expr.op == "++" else "sub", old, delta)
            builder.store(new, pointer)
            return new
        value = self.rvalue(expr.operand)
        if expr.op == "-":
            return builder.binop("sub", builder.const(0, value.type), value)
        if expr.op == "~":
            return builder.binop("xor", value, builder.const(-1, value.type))
        if expr.op == "!":
            return builder.icmp("eq", value, builder.const(0, value.type))
        raise LoweringError(f"unsupported unary operator {expr.op!r}")

    def _lower_binary(self, expr: Binary) -> Value:
        builder = self.builder
        if expr.op == ",":
            self.rvalue(expr.lhs)
            return self.rvalue(expr.rhs)
        lhs = self.rvalue(expr.lhs)
        rhs = self.rvalue(expr.rhs)
        if expr.op in _CMP_OPS:
            op = _CMP_OPS[expr.op]
            if op not in ("eq", "ne"):
                prefix = "u" if (_is_unsigned(lhs.type) or _is_unsigned(rhs.type)) else "s"
                op = prefix + op
            return builder.icmp(op, lhs, rhs)
        # Pointer arithmetic becomes GEP (so it is visible to addr_gep).
        if isinstance(lhs.type, PointerType) and expr.op in ("+", "-"):
            index = rhs
            if expr.op == "-":
                index = builder.binop("sub", builder.const(0, rhs.type), rhs)
            return builder.gep(lhs, [index])
        result_type = _arith_type(lhs, rhs)
        if expr.op in _BINOP_NAMES:
            return builder.binop(_BINOP_NAMES[expr.op], lhs, rhs, result_type)
        if expr.op == "/":
            op = "udiv" if _is_unsigned(result_type) else "sdiv"
            return builder.binop(op, lhs, rhs, result_type)
        if expr.op == "%":
            op = "urem" if _is_unsigned(result_type) else "srem"
            return builder.binop(op, lhs, rhs, result_type)
        if expr.op == ">>":
            op = "lshr" if _is_unsigned(lhs.type) else "ashr"
            return builder.binop(op, lhs, rhs, result_type)
        raise LoweringError(f"unsupported binary operator {expr.op!r}")

    def _lower_logical(self, expr: Logical) -> Value:
        builder = self.builder
        result = builder.alloca(I32, "logtmp")
        rhs_label = builder.new_label("log.rhs")
        end_label = builder.new_label("log.end")
        lhs = self._as_bool(self.rvalue(expr.lhs))
        short_value = 1 if expr.op == "||" else 0
        builder.store(builder.const(short_value, I32), result)
        if expr.op == "&&":
            builder.branch(lhs, rhs_label, end_label)
        else:
            builder.branch(lhs, end_label, rhs_label)
        builder.start_block(rhs_label)
        rhs = self._as_bool(self.rvalue(expr.rhs))
        builder.store(builder.cast(rhs, I32), result)
        builder.jump(end_label)
        builder.start_block(end_label)
        return builder.load(result)

    def _lower_conditional(self, expr: Conditional) -> Value:
        builder = self.builder
        result = builder.alloca(I64, "condtmp")
        then_label = builder.new_label("cond.then")
        else_label = builder.new_label("cond.else")
        end_label = builder.new_label("cond.end")
        cond = self._as_bool(self.rvalue(expr.cond))
        builder.branch(cond, then_label, else_label)
        builder.start_block(then_label)
        builder.store(builder.cast(self.rvalue(expr.then), I64), result)
        builder.jump(end_label)
        builder.start_block(else_label)
        builder.store(builder.cast(self.rvalue(expr.otherwise), I64), result)
        builder.jump(end_label)
        builder.start_block(end_label)
        return builder.load(result)

    def _lower_assign(self, expr: Assign) -> Value:
        builder = self.builder
        pointer = self.lvalue(expr.target)
        if expr.op == "=":
            value = self.rvalue(expr.value)
        else:
            current = builder.load(pointer)
            rhs = self.rvalue(expr.value)
            synthetic = Binary(_COMPOUND_OPS[expr.op], None, None)
            value = self._apply_binop(synthetic.op, current, rhs)
        target_type = pointer.type.pointee
        coerced = self._coerce(value, target_type)
        builder.store(coerced, pointer)
        return coerced

    def _apply_binop(self, op: str, lhs: Value, rhs: Value) -> Value:
        builder = self.builder
        result_type = _arith_type(lhs, rhs)
        if op in _BINOP_NAMES:
            return builder.binop(_BINOP_NAMES[op], lhs, rhs, result_type)
        if op == "/":
            return builder.binop("udiv" if _is_unsigned(result_type) else "sdiv",
                                 lhs, rhs, result_type)
        if op == "%":
            return builder.binop("urem" if _is_unsigned(result_type) else "srem",
                                 lhs, rhs, result_type)
        if op == ">>":
            return builder.binop("lshr" if _is_unsigned(lhs.type) else "ashr",
                                 lhs, rhs, result_type)
        raise LoweringError(f"unsupported compound operator {op!r}")

    def _lower_call(self, expr: CallExpr) -> Value:
        builder = self.builder
        if expr.callee in _FENCE_BUILTINS:
            builder.fence("lfence" if "lf" in expr.callee or expr.callee == "lfence"
                          else "mfence")
            return builder.const(0, I32)
        args = [self.rvalue(a) for a in expr.args]
        definition = self.module_lowerer.signatures.get(expr.callee)
        return_type = definition if definition is not None else I64
        result = builder.call(expr.callee, args, return_type)
        return result if result is not None else builder.const(0, I32)

    # -- coercion -------------------------------------------------------------

    def _as_bool(self, value: Value) -> Value:
        if value.type == I1:
            return value
        return self.builder.icmp("ne", value, self.builder.const(0, value.type))

    def _coerce(self, value: Value, target: Type) -> Value:
        if value.type == target:
            return value
        return self.builder.cast(value, target)


@dataclass
class Definition:
    """One lowered function definition (its ``span`` indexes
    ``Module.tokens``), as a later compile of an edited unit may reuse
    it: with the ``.str`` number of its first string literal and the
    globals its literals added, in order."""

    function: Function
    offset: int
    strings: list[GlobalVariable]


@dataclass
class UnitMemo:
    """What the lowering of a unit depends on outside each definition:
    the (kind, text) of every token outside a definition, every
    function's return type and every struct.  A definition is reused
    only where all three are unchanged."""

    preamble: list[tuple[str, str]]
    signatures: dict[str, Type]
    structs: dict[str, Type]
    definitions: dict[str, list[Definition]] = field(default_factory=dict)


class ModuleLowerer:
    def __init__(self, unit: TranslationUnit, name: str = "",
                 previous: Module | None = None):
        self.unit = unit
        self.module = Module(name=name, tokens=unit.tokens)
        self.signatures: dict[str, Type] = {}
        self.previous = previous.memo if previous is not None else None
        self._strings: list[GlobalVariable] = []

    def intern_string(self, text: str, builder: IRBuilder) -> Value:
        name = f".str.{len(self._strings)}"
        array = ArrayType(IntType(8), len(text) + 1)
        variable = GlobalVariable(name=name, type=array, initializer=text,
                                  is_const=True)
        self._strings.append(variable)
        self.module.add_global(variable)
        ref = GlobalRef(name, pointer_to(array))
        return builder.gep(ref, [builder.const(0, I32), builder.const(0, I32)])

    def lower(self) -> Module:
        self.module.structs = dict(self.unit.structs)
        for global_def in self.unit.globals:
            self.module.add_global(GlobalVariable(
                name=global_def.name,
                type=global_def.type,
                initializer=_fold_initializer(global_def.init),
                is_const=global_def.is_const,
            ))
        for definition in self.unit.functions:
            self.signatures[definition.name] = definition.return_type
        memo = UnitMemo(self._preamble(), self.signatures,
                        self.module.structs)
        same_context = self.previous is not None and (
            memo.preamble == self.previous.preamble
            and memo.signatures == self.previous.signatures
            and memo.structs == self.previous.structs)
        reused: set[int] = set()
        for definition in self.unit.functions:
            if definition.span is None:
                continue  # declaration only: stays undefined (havoc at A-CFG)
            offset = len(self._strings)
            earlier = definition.reuse
            if earlier is not None and same_context and (
                    earlier.offset == offset or not earlier.strings):
                function = earlier.function
                if function.span != definition.span:
                    function = replace(function, span=definition.span)
                reused.add(id(function))
                for variable in earlier.strings:
                    self._strings.append(variable)
                    self.module.add_global(variable)
            else:
                if definition.body is None:
                    definition = Parser(self.unit.tokens).definition_at(
                        definition.span[0])
                function = FunctionLowerer(self, definition).lower()
            self.module.add_function(function)
            memo.definitions.setdefault(function.name, []).append(
                Definition(function, offset, self._strings[offset:]))
        for function in self.module.functions.values():
            if id(function) not in reused:
                verify_function(function)
        self.module.memo = memo
        return self.module

    def _preamble(self) -> list[tuple[str, str]]:
        tokens = self.unit.tokens
        spans = [d.span for d in self.unit.functions if d.span is not None]
        kept, position = [], 0
        for start, end in sorted(spans) + [(len(tokens) - 1, None)]:
            kept += [(t.kind, t.text) for t in tokens[position:start]]
            position = end
        return kept


def _fold_initializer(init):
    from repro.minic.cparser import _const_fold

    if init is None:
        return None
    if isinstance(init, list):
        return [_const_fold(e) for e in init]
    if isinstance(init, StringLiteral):
        return init.value
    if isinstance(init, Expr):
        return _const_fold(init)
    return init


def compile_c(source: str, name: str = "",
              previous: Module | None = None) -> Module:
    """Compile mini-C source text to an IR module (the Clang stage of
    Fig. 6).  The module keeps the source tokens and each function's
    span in them (:mod:`repro.sched.digest` hashes those).

    ``previous`` is a module this function compiled from an earlier
    version of the same unit.  A definition whose tokens, preamble,
    signatures and first ``.str`` number are unchanged reuses its parse
    and lowered :class:`Function` (span re-based); the result equals a
    compile without ``previous``."""
    return ModuleLowerer(parse_c(source, previous), name, previous).lower()
