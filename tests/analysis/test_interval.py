"""Tests for the branch-independent interval analysis.

The key soundness property: facts come only from type widths, masking
arithmetic, and reaching stores — never from branch conditions — so an
``in bounds`` verdict holds on every A-CFG path, including mispredicted
ones.  That is what lets ClouPHT prune on it.
"""

import pytest

from repro.analysis import Interval, IntervalAnalysis, type_range
from repro.analysis.reaching import definitions
from repro.ir import (Cast, GetElementPtr, GlobalRef, IntType, Load,
                      PointerType, Store, Temp)
from repro.minic import compile_c


def _function(source, name="f"):
    return compile_c(source).functions[name]


def _accesses_of(function, global_name):
    """(label, index, ins) for loads/stores addressing ``global_name``."""
    defs = definitions(function)
    out = []
    for block in function.blocks:
        for index, ins in enumerate(block.instructions):
            if not isinstance(ins, (Load, Store)):
                continue
            value = ins.pointer
            for _ in range(32):
                if isinstance(value, GlobalRef):
                    if value.name == global_name:
                        out.append((block.label, index, ins))
                    break
                if not isinstance(value, Temp):
                    break
                producer = defs.get(value.name)
                if isinstance(producer, (GetElementPtr,)):
                    value = producer.base
                elif isinstance(producer, Cast):
                    value = producer.value
                else:
                    break
    return out


class TestInterval:
    def test_join_and_contains(self):
        a = Interval(0, 10)
        b = Interval(5, 20)
        assert a.join(b) == Interval(0, 20)
        assert Interval(0, 20).contains(a)
        assert not a.contains(b)

    def test_top_is_absorbing(self):
        top = Interval(None, None)
        assert Interval(1, 2).join(top) == top
        assert top.join(Interval(1, 2)) == top

    def test_type_ranges(self):
        assert type_range(IntType(8, signed=False)) == Interval(0, 255)
        assert type_range(IntType(8, signed=True)) == Interval(-128, 127)
        assert type_range(IntType(1, signed=True)) == Interval(0, 1)
        assert type_range(PointerType(IntType(8, signed=False))) == \
            Interval(None, None)


class TestInBounds:
    def _verdicts(self, source, global_name, name="f"):
        function = _function(source, name)
        analysis = IntervalAnalysis(function)
        accesses = _accesses_of(function, global_name)
        assert accesses, f"no accesses to {global_name} found"
        return [analysis.access_in_bounds(ins) for _, _, ins in accesses]

    def test_masked_index_proves(self):
        verdicts = self._verdicts("""
uint8_t t[256];
uint8_t f(uint64_t x) { return t[x & 255]; }
""", "t")
        assert all(verdicts)

    def test_branch_guard_does_not_prove(self):
        """The Spectre v1 shape: the guard is dead under misprediction,
        so a branch-independent analysis must NOT trust it."""
        verdicts = self._verdicts("""
uint8_t t[256];
uint64_t n = 256;
uint8_t f(uint64_t x) {
    if (x < n) { return t[x]; }
    return 0;
}
""", "t")
        assert not any(verdicts)

    def test_modulo_index_proves(self):
        verdicts = self._verdicts("""
uint8_t t[16];
uint8_t f(uint64_t x) { return t[x % 16]; }
""", "t")
        assert all(verdicts)

    def test_scaled_mask_respects_extent(self):
        proves = self._verdicts("""
uint8_t big[16384];
uint8_t f(uint64_t x) { return big[(x & 255) * 64]; }
""", "big")
        assert all(proves)
        fails = self._verdicts("""
uint8_t small[16000];
uint8_t f(uint64_t x) { return small[(x & 255) * 64]; }
""", "small")
        assert not any(fails)

    def test_narrow_type_proves(self):
        """A uint8_t index can never escape a 256-entry table."""
        verdicts = self._verdicts("""
uint8_t t[256];
uint8_t f(uint8_t x) { return t[x]; }
""", "t")
        assert all(verdicts)

    def test_local_array_masked_index_proves(self):
        function = _function("""
uint64_t f(uint64_t x) {
    uint64_t a[4];
    a[x & 3] = x;
    return a[x & 3];
}
""")
        analysis = IntervalAnalysis(function)
        geps = [(block.label, index, ins)
                for block in function.blocks
                for index, ins in enumerate(block.instructions)
                if isinstance(ins, (Load, Store))
                and isinstance(ins.pointer, Temp)
                and "gep" in ins.pointer.name]
        assert geps
        assert all(analysis.access_in_bounds(ins) for _, _, ins in geps)

    def test_uninitialized_index_does_not_prove(self):
        verdicts = self._verdicts("""
uint8_t t[256];
uint8_t f(uint64_t x) {
    uint64_t i;
    if (x) { i = 3; }
    return t[i];
}
""", "t")
        assert not any(verdicts)

    def test_stored_constant_index_proves(self):
        """Reaching stores carry constants through the -O0 slot
        round-trip."""
        verdicts = self._verdicts("""
uint8_t t[16];
uint8_t f(uint64_t x) {
    uint64_t i = 3;
    if (x) { i = 7; }
    return t[i];
}
""", "t")
        assert all(verdicts)

    def test_range_of_masked_value(self):
        function = _function("""
uint64_t f(uint64_t x) { return x & 63; }
""")
        analysis = IntervalAnalysis(function)
        masked = [ins.result for block in function.blocks
                  for ins in block.instructions
                  if ins.result is not None and "and" in
                  type(ins).__name__.lower() + getattr(ins, "op", "")]
        assert masked
        rng = analysis.range_of(masked[-1])
        assert rng.lo >= 0 and rng.hi <= 63
