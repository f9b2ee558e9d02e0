"""Branch-independent value-range analysis over array indices.

Proves *non-speculative in-boundedness* (§6.2 terminology: whether an
access can ever leave its object) for the range-pruning knob
(``ClouConfig.enable_range_pruning``): PHT's load-side and FWD's
store-side pruning, through ``DetectionEngine.ranges``.

Soundness under speculation is the whole point, so the analysis is
deliberately **branch-independent**: it never refines a range from a
comparison, because a mispredicted PHT branch executes the very path the
comparison was supposed to exclude.  Facts come only from places the
transient machine cannot undo — type widths (a ``u8`` load is ≤ 255
no matter what the attacker trained), masking/modulo arithmetic, and
reaching stores over stack slots (an A-CFG path is an A-CFG path whether
or not it is architecturally reachable).  Spectre-PHT's bounds check
``if (x < size) a[x]`` therefore proves nothing here, while
``a[x & (N-1)]`` with a power-of-two extent does — exactly the split
between gadgets Clou must keep searching and accesses it may skip.

The analysis is one pass in reverse postorder, starting every temp at
its type range (top).  On the acyclic A-CFG every def and every
reaching store precede their uses in that order, so the pass is the
fixpoint.  On a cyclic function (raw ``compile_c`` output, which only the
``interp-interval`` fuzz oracle analyzes) a value read across a back edge
is still at its type range, so the result is sound though coarser than a
fixpoint: each transfer over-approximates given over-approximate inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir import (Alloca, ArrayType, BinOp, Cast, Constant, Function,
                      GetElementPtr, GlobalRef, ICmp, Instruction, IntType,
                      Load, PointerType, Store, StructType, Temp, Value)

from .dataflow import solve
from .reaching import ReachingStores


@dataclass(frozen=True)
class Interval:
    """A closed integer interval; ``None`` bounds mean ±infinity."""

    lo: int | None
    hi: int | None

    def contains(self, other: "Interval") -> bool:
        lo_ok = self.lo is None or (other.lo is not None and other.lo >= self.lo)
        hi_ok = self.hi is None or (other.hi is not None and other.hi <= self.hi)
        return lo_ok and hi_ok

    def join(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(lo, hi)

    def clip(self, bound: "Interval") -> "Interval":
        """Intersect with ``bound`` (used only when wraparound is impossible)."""
        lo = self.lo if bound.lo is None else (
            bound.lo if self.lo is None else max(self.lo, bound.lo))
        hi = self.hi if bound.hi is None else (
            bound.hi if self.hi is None else min(self.hi, bound.hi))
        if lo is not None and hi is not None and lo > hi:
            return bound
        return Interval(lo, hi)

    @property
    def nonneg(self) -> bool:
        return self.lo is not None and self.lo >= 0

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


TOP = Interval(None, None)


def type_range(type_: Value | None) -> Interval:
    """The representable range of an integer type (TOP otherwise)."""
    if not isinstance(type_, IntType):
        return TOP
    if type_.bits == 1:
        return Interval(0, 1)
    if type_.signed:
        half = 1 << (type_.bits - 1)
        return Interval(-half, half - 1)
    return Interval(0, (1 << type_.bits) - 1)


def _binop_range(op: str, a: Interval, b: Interval, out: Interval) -> Interval:
    """Result interval for ``a op b``; ``out`` is the result type range.

    Callers clip ``a``/``b`` to their operand type ranges first, so all
    bounds are finite here.  Wrapping ops (add/sub/mul/shl) keep the
    exact result only when it fits ``out``; non-wrapping ops clip.
    """

    def wrap(iv: Interval) -> Interval:
        return iv if out.contains(iv) else out

    if op == "add":
        return wrap(Interval(a.lo + b.lo, a.hi + b.hi))
    if op == "sub":
        return wrap(Interval(a.lo - b.hi, a.hi - b.lo))
    if op == "mul":
        corners = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
        return wrap(Interval(min(corners), max(corners)))
    if op == "and":
        # x & m with m wholly non-negative is always in [0, m] in two's
        # complement — the masking idiom the pruner exists to recognize.
        caps = [iv.hi for iv in (a, b) if iv.nonneg]
        if caps:
            return Interval(0, min(caps)).clip(out)
        return out
    if op in ("or", "xor"):
        if a.nonneg and b.nonneg:
            bits = max(a.hi.bit_length(), b.hi.bit_length())
            return Interval(0, (1 << bits) - 1).clip(out)
        return out
    if op == "urem":
        if b.lo > 0:
            return Interval(0, b.hi - 1).clip(out)
        return out
    if op == "udiv":
        if a.nonneg and b.lo > 0:
            return Interval(a.lo // b.hi, a.hi // b.lo).clip(out)
        return out
    if op == "sdiv":
        if a.nonneg and b.lo > 0:
            return Interval(a.lo // b.hi, a.hi // b.lo).clip(out)
        return out
    if op == "shl":
        if a.nonneg and b.nonneg and b.hi < 128:
            return wrap(Interval(a.lo << b.lo, a.hi << b.hi))
        return out
    if op in ("lshr", "ashr"):
        if a.nonneg and b.nonneg and b.hi < 128:
            return Interval(a.lo >> b.hi, a.hi >> b.lo).clip(out)
        return out
    return out


class IntervalAnalysis:
    """Value ranges for one function plus in-boundedness queries."""

    def __init__(self, function: Function):
        self.function = function
        reaching = ReachingStores(function)
        self.defs = reaching.defs
        self._ranges: dict[str, Interval] = {}
        self._bounds_memo: dict[int, bool] = {}
        self._run(reaching)

    def _run(self, reaching: ReachingStores) -> None:
        # One pass in reverse postorder, threading the reaching-stores
        # state through each block so a load reads its writers there.
        solution = solve(self.function, reaching)
        block_of = solution.cfg.block_of
        for label in solution.cfg.reverse_postorder():
            for ins, state in solution.instruction_states(label):
                if ins.result is None or not isinstance(
                        ins.result.type, IntType):
                    continue
                writers = None
                if isinstance(ins, Load):
                    facts = reaching.stores_for(ins, state)
                    if facts is not None:
                        writers = [block_of[fact[2]].instructions[fact[3]]
                                   for fact in facts]
                self._ranges[ins.result.name] = self._transfer(ins, writers)

    def range_of(self, value: Value) -> Interval:
        """Sound interval for any IR value (TOP for non-integers)."""
        if isinstance(value, Constant):
            return Interval(value.value, value.value)
        bound = type_range(value.type)
        if isinstance(value, Temp):
            return self._ranges.get(value.name, bound).clip(bound)
        return bound

    def _transfer(self, ins: Instruction,
                  writers: list[Instruction] | None) -> Interval:
        """``ins``'s result range; ``writers`` are the stores (or calls
        writing an escaped slot) a load may observe, None when its slot
        may be uninitialized or clobbered."""
        out = type_range(ins.result.type)
        if isinstance(ins, Load):
            joined: Interval | None = None
            for writer in writers or ():
                value = self.range_of(writer.value) \
                    if isinstance(writer, Store) else TOP
                joined = value if joined is None else joined.join(value)
            return joined.clip(out) if joined is not None else out
        if isinstance(ins, BinOp):
            a = self.range_of(ins.lhs)
            b = self.range_of(ins.rhs)
            return _binop_range(ins.op, a, b, out)
        if isinstance(ins, ICmp):
            return Interval(0, 1)
        if isinstance(ins, Cast):
            inner = self.range_of(ins.value)
            return inner if out.contains(inner) else out
        # Calls, arguments-by-way-of-anything-else: the type is all we know.
        return out

    # -- in-boundedness ----------------------------------------------------

    def access_in_bounds(self, ins: Instruction) -> bool:
        """Can this load/store ever (even transiently) leave its object?

        True only when the accessed address provably stays inside a
        statically-sized object on *every* A-CFG path — mispredicted
        ones included, since ranges never trust branches.
        """
        if not isinstance(ins, (Load, Store)):
            return False
        key = id(ins)
        cached = self._bounds_memo.get(key)
        if cached is None:
            cached = self._pointer_in_bounds(ins.pointer)
            self._bounds_memo[key] = cached
        return cached

    def _pointer_in_bounds(self, value: Value) -> bool:
        if isinstance(value, GlobalRef):
            return True  # the object's own address
        if not isinstance(value, Temp):
            return False
        ins = self.defs.get(value.name)
        if isinstance(ins, Alloca):
            return True
        if isinstance(ins, Cast):
            return self._pointer_in_bounds(ins.value)
        if isinstance(ins, GetElementPtr):
            return self._gep_in_bounds(ins)
        # Loaded or call-produced pointers: extent unknown — and a
        # transiently-loaded pointer is exactly the Listing 1 shape.
        return False

    def _gep_in_bounds(self, gep: GetElementPtr) -> bool:
        base_type = gep.base.type
        if not isinstance(base_type, PointerType):
            return False
        if len(gep.indices) == 1:
            # Pointer arithmetic on a (possibly decayed) element pointer:
            # recover the underlying array extent and accumulated offset.
            extent = self._decayed_extent(gep.base)
            if extent is None:
                return False
            count, offset = extent
            rng = self.range_of(gep.indices[0])
            return (rng.lo is not None and rng.hi is not None
                    and rng.lo + offset >= 0 and rng.hi + offset < count)
        # Aggregate shape gep(base, [0, i, ...]): the leading literal 0
        # means no pointer arithmetic on base itself.
        first = gep.indices[0]
        if not (isinstance(first, Constant) and first.value == 0):
            return False
        if not self._pointer_in_bounds(gep.base):
            return False
        walked = base_type.pointee
        for index in gep.indices[1:]:
            if isinstance(walked, ArrayType):
                rng = self.range_of(index)
                if (rng.lo is None or rng.hi is None
                        or rng.lo < 0 or rng.hi >= walked.count):
                    return False
                walked = walked.element
            elif isinstance(walked, StructType):
                if not isinstance(index, Constant):
                    return False
                if not 0 <= index.value < len(walked.fields):
                    return False
                walked = walked.fields[index.value][1]
            else:
                return False
        return True

    def _decayed_extent(self, value: Value) -> tuple[int, int] | None:
        """(array count, constant offset) for an element pointer produced
        by array decay or constant pointer arithmetic; None if unknown."""
        if not isinstance(value, Temp):
            return None
        ins = self.defs.get(value.name)
        if isinstance(ins, Cast):
            return self._decayed_extent(ins.value)
        if not isinstance(ins, GetElementPtr):
            return None
        if any(not isinstance(i, Constant) for i in ins.indices):
            return None
        base_type = ins.base.type
        if (len(ins.indices) == 2 and ins.indices[0].value == 0
                and isinstance(base_type, PointerType)
                and isinstance(base_type.pointee, ArrayType)
                and self._pointer_in_bounds(ins.base)):
            return base_type.pointee.count, ins.indices[1].value
        if len(ins.indices) == 1:
            inner = self._decayed_extent(ins.base)
            if inner is None:
                return None
            count, offset = inner
            return count, offset + ins.indices[0].value
        return None
