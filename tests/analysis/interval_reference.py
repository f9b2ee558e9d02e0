"""The interval analysis as a round-capped fixpoint, kept for
differential tests.

:class:`ReferenceIntervalAnalysis` is ``IntervalAnalysis`` as it was
before the analysis became one reverse-postorder pass: it replays every
load's reaching stores once, then sweeps the blocks in reverse
postorder for up to ``max_rounds`` rounds until no range changes.
``tests/analysis/test_interval_single_pass.py`` checks the single pass
against it.
"""

from __future__ import annotations

from repro.analysis.cfg import BlockCFG
from repro.analysis.dataflow import solve
from repro.analysis.interval import TOP, Interval, _binop_range, type_range
from repro.analysis.reaching import ReachingStores, definitions
from repro.ir import (Alloca, ArrayType, BinOp, Cast, Constant, Function,
                      GetElementPtr, GlobalRef, ICmp, Instruction, IntType,
                      Load, PointerType, Store, StructType, Temp, Value)


class ReferenceIntervalAnalysis:
    """Value ranges for one function plus in-boundedness queries."""

    def __init__(self, function: Function, cfg: BlockCFG | None = None,
                 max_rounds: int = 4):
        self.function = function
        self.cfg = cfg or BlockCFG(function)
        self.defs = definitions(function)
        self._problem = ReachingStores(function)
        self._reaching = solve(function, self._problem)
        self._ins_at: dict[tuple[str, int], Instruction] = {}
        for block in function.blocks:
            for index, ins in enumerate(block.instructions):
                self._ins_at[(block.label, index)] = ins
        self._ranges: dict[str, Interval] = {}
        self._bounds_memo: dict[int, bool] = {}
        self._load_facts: dict[int, list[tuple] | None] = {}
        self._run(max_rounds)

    # -- fixpoint ----------------------------------------------------------

    def _run(self, max_rounds: int) -> None:
        # One replay freezes each load's reaching-store facts — the
        # reaching solution is fixed, so only the interval rounds repeat.
        for block in self.function.blocks:
            state = self._reaching.block_in.get(block.label, 0)
            for ins in block.instructions:
                if isinstance(ins, Load) and ins.result is not None \
                        and isinstance(ins.result.type, IntType):
                    self._load_facts[id(ins)] = \
                        self._problem.stores_for(ins, state)
                state = self._problem.transfer(ins, state)
        order = self.cfg.reverse_postorder()
        for _ in range(max_rounds):
            changed = False
            for label in order:
                for ins in self.cfg.block_of[label].instructions:
                    if ins.result is not None and isinstance(
                            ins.result.type, IntType):
                        new = self._transfer(ins)
                        if self._ranges.get(ins.result.name) != new:
                            self._ranges[ins.result.name] = new
                            changed = True
            if not changed:
                break

    def range_of(self, value: Value) -> Interval:
        """Sound interval for any IR value (TOP for non-integers)."""
        if isinstance(value, Constant):
            return Interval(value.value, value.value)
        bound = type_range(value.type)
        if isinstance(value, Temp):
            return self._ranges.get(value.name, bound).clip(bound)
        return bound

    def _transfer(self, ins: Instruction) -> Interval:
        out = type_range(ins.result.type)
        if isinstance(ins, Load):
            slot = self._load_range(ins)
            return slot.clip(out) if slot is not None else out
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

    def _load_range(self, ins: Load) -> Interval | None:
        """Join of the values the reaching stores may have written, or
        None when the slot may be uninitialized or clobbered."""
        facts = self._load_facts.get(id(ins))
        if facts is None:
            return None
        joined: Interval | None = None
        for fact in facts:
            store = self._ins_at[(fact[2], fact[3])]
            value = self.range_of(store.value) if isinstance(store, Store) \
                else TOP  # call writing an escaped slot
            joined = value if joined is None else joined.join(value)
        return joined

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
