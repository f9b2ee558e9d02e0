"""Reaching definitions for -O0 stack slots.

minic lowers every local and parameter through an alloca, so the
interesting "definitions" are *stores*: which stores can a given load
observe?  This is the classical gen/kill reaching-definitions problem
over the powerset lattice, with three kinds of facts:

- ``("uninit", base)`` — the slot may still hold its uninitialized value
  (seeded at the entry for every alloca; killed by whole-slot stores).
- ``("store", base, label, index, whole)`` — the store at (label, index)
  may be the last write to ``base``.  ``whole`` distinguishes strong
  updates (pointer is exactly the alloca) from element stores through a
  GEP, which only ever gen (weak update).
- ``("clobber", label, index)`` — a store through an unresolvable
  pointer, or a call that may write an escaped slot; poisons every base.

Facts are enumerated up front and the dataflow state is a Python-int
*bitset* (one bit per fact): joins are single big-int ORs and transfers
are precomputed ``(state & ~kill) | gen`` masks, which keeps the solve
linear enough for the thousands-of-blocks A-CFGs of the crypto corpus.

Pointer targets are resolved by a purely syntactic def-chain walk
(:func:`resolve_slot`); anything it cannot prove lands in ``unknown``
and becomes a clobber, keeping clients sound.  Per §5.2's allocation
assumptions, pointers rooted at arguments or globals can never alias a
local alloca, so stores through them do not disturb slot facts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir import (Alloca, Call, Cast, Function, GetElementPtr, GlobalRef,
                      Instruction, Load, PointerType, Store, Temp, Value)

from .dataflow import BitsetLattice, DataflowProblem


@dataclass(frozen=True)
class SlotRef:
    """Where a pointer lands after the def-chain walk."""

    kind: str        # 'alloca' | 'nonlocal' | 'unknown'
    base: str = ""   # alloca result temp name when kind == 'alloca'
    whole: bool = False  # pointer is exactly the alloca (strong update)

    @property
    def is_alloca(self) -> bool:
        return self.kind == "alloca"


NONLOCAL = SlotRef("nonlocal")
UNKNOWN = SlotRef("unknown")


def definitions(function: Function) -> dict[str, Instruction]:
    """Map temp name -> defining instruction."""
    defs: dict[str, Instruction] = {}
    for block in function.blocks:
        for ins in block.instructions:
            if ins.result is not None:
                defs[ins.result.name] = ins
    return defs


def resolve_slot(value: Value, defs: dict[str, Instruction]) -> SlotRef:
    """Resolve a pointer value to the stack slot it addresses, if any."""
    whole = True
    seen: set[str] = set()
    while True:
        if isinstance(value, GlobalRef):
            return NONLOCAL
        if not isinstance(value, Temp):
            # Arguments cannot alias local allocas (§5.2 assumption 1);
            # constants are not pointers.
            return NONLOCAL if isinstance(value.type, PointerType) else UNKNOWN
        if value.name in seen:
            return UNKNOWN
        seen.add(value.name)
        ins = defs.get(value.name)
        if ins is None:
            return UNKNOWN
        if isinstance(ins, Alloca):
            return SlotRef("alloca", base=value.name, whole=whole)
        if isinstance(ins, GetElementPtr):
            whole = False
            value = ins.base
        elif isinstance(ins, Cast):
            value = ins.value
        else:
            # Loaded or call-produced pointers: target unknown.
            return UNKNOWN


class ReachingStores(DataflowProblem):
    """Forward may-analysis over store/uninit/clobber bitset facts."""

    def __init__(self, function: Function):
        self.function = function
        self.defs = definitions(function)
        self.allocas: list[str] = [
            ins.result.name
            for block in function.blocks for ins in block.instructions
            if isinstance(ins, Alloca) and ins.result is not None
        ]
        self.escaped = self._escaped_slots()
        self.facts: list[tuple] = []
        self._fact_bit: dict[tuple, int] = {}
        self._slot_of: dict[int, SlotRef] = {}  # id(Load/Store) -> target
        # Per-base masks for decoding; clobbers poison every base.
        self.uninit_bit: dict[str, int] = {}
        self.base_mask: dict[str, int] = {}
        self.clobber_mask: int = 0
        self._masks: dict[int, tuple[int, int]] = {}  # id(ins) -> (gen, kill)
        self._enumerate_facts()

    def _bit(self, fact: tuple) -> int:
        bit = self._fact_bit.get(fact)
        if bit is None:
            bit = 1 << len(self.facts)
            self._fact_bit[fact] = bit
            self.facts.append(fact)
        return bit

    def _escaped_slots(self) -> frozenset[str]:
        """Alloca bases whose address leaves the function's hands —
        passed to a call or stored somewhere as a value — so any later
        call may write them."""
        escaped: set[str] = set()
        for block in self.function.blocks:
            for ins in block.instructions:
                candidates: list[Value] = []
                if isinstance(ins, Call):
                    candidates = [a for a in ins.args
                                  if isinstance(a.type, PointerType)]
                elif isinstance(ins, Store) and isinstance(
                        ins.value.type, PointerType):
                    candidates = [ins.value]
                for value in candidates:
                    ref = resolve_slot(value, self.defs)
                    if ref.is_alloca:
                        escaped.add(ref.base)
        return frozenset(escaped)

    def _enumerate_facts(self) -> None:
        for base in self.allocas:
            bit = self._bit(("uninit", base))
            self.uninit_bit[base] = bit
            self.base_mask[base] = bit
        for block in self.function.blocks:
            for index, ins in enumerate(block.instructions):
                gen = 0
                kill = 0
                if isinstance(ins, (Load, Store)):
                    ref = resolve_slot(ins.pointer, self.defs)
                    self._slot_of[id(ins)] = ref
                if isinstance(ins, Store):
                    ref = self._slot_of[id(ins)]
                    if ref.is_alloca:
                        fact = ("store", ref.base, block.label, index,
                                ref.whole)
                        gen = self._bit(fact)
                        self.base_mask[ref.base] |= gen
                        if ref.whole:
                            # Strong update: kill everything previously
                            # known about this base (mask is final only
                            # after enumeration; patched below).
                            kill = -1  # placeholder, resolved after scan
                    elif ref.kind == "unknown":
                        gen = self._bit(("clobber", block.label, index))
                        self.clobber_mask |= gen
                elif isinstance(ins, Call):
                    targets = set(self.escaped)
                    for arg in ins.args:
                        if not isinstance(arg.type, PointerType):
                            continue
                        ref = resolve_slot(arg, self.defs)
                        if ref.is_alloca:
                            targets.add(ref.base)
                        elif ref.kind == "unknown":
                            gen |= self._bit(
                                ("clobber", block.label, index))
                            self.clobber_mask |= gen
                    for base in sorted(targets):
                        bit = self._bit(
                            ("store", base, block.label, index, False))
                        gen |= bit
                        self.base_mask[base] |= bit
                if gen or kill:
                    self._masks[id(ins)] = (gen, kill)
        # Resolve strong-update kill masks now that base masks are final.
        for block in self.function.blocks:
            for ins in block.instructions:
                masks = self._masks.get(id(ins))
                if masks is None or masks[1] != -1:
                    continue
                gen = masks[0]
                ref = self._slot_of[id(ins)]
                self._masks[id(ins)] = (gen, self.base_mask[ref.base] & ~gen)

    def lattice(self) -> BitsetLattice:
        return BitsetLattice()

    def boundary(self, function: Function) -> int:
        state = 0
        for bit in self.uninit_bit.values():
            state |= bit
        return state

    def transfer(self, ins: Instruction, state: int) -> int:
        masks = self._masks.get(id(ins))
        if masks is None:
            return state
        gen, kill = masks
        return (state & ~kill) | gen

    def stores_for(self, ins: Load, state: int) -> list[tuple] | None:
        """Store facts the load may observe, or None when the slot may be
        uninitialized / clobbered / not a tracked alloca slot."""
        ref = self._slot_of[id(ins)]
        if not ref.is_alloca:
            return None
        if state & self.clobber_mask:
            return None
        if state & self.uninit_bit[ref.base]:
            return None
        relevant = state & self.base_mask[ref.base]
        out = []
        while relevant:
            low = relevant & -relevant
            out.append(self.facts[low.bit_length() - 1])
            relevant ^= low
        return out
