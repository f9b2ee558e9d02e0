"""Test-only reference for S-AEG construction.

:class:`ReferenceSAEG` builds register dataflow, rf and the (data.rf)*
extension with the original quadratic algorithms and the original
frozen-dataclass ``Dep``: every store in the ``rf_window`` is tested
against every load, and every extension round re-runs every rf pair and
re-propagates every register node.
:func:`saeg_facts` and :func:`assert_same_build` compare its result with
:class:`repro.clou.aeg.SAEG`, which must produce the same ``rf`` list,
the same ``deps`` tuples and the same ``taint``, in the same orders.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.clou.aeg import SAEG
from repro.ir import (
    Alloca,
    Argument,
    BinOp,
    Call,
    Cast,
    GetElementPtr,
    ICmp,
    IntType,
    Load,
    Temp,
    Value,
)


@dataclass(frozen=True)
class Dep:
    """The original ``Dep``: a frozen dataclass, hashed in Python."""

    source: int
    via_gep_index: bool = False
    store_hops: int = 0


class ReferenceSAEG(SAEG):
    """The S-AEG with the original dataflow, rf and extension code."""

    def _build_dataflow(self):
        deps = self.deps
        taint = self.taint

        def value_deps(value: Value) -> tuple[Dep, ...]:
            if isinstance(value, Temp):
                return deps.get(value.name, ())
            return ()

        def value_taint(value: Value) -> bool:
            if isinstance(value, Temp):
                return taint.get(value.name, False)
            if isinstance(value, Argument):
                return True
            return False

        for node in self.nodes:
            ins = node.instruction
            if ins.result is None:
                continue
            name = ins.result.name
            if isinstance(ins, Load):
                deps[name] = (Dep(node.nid),)
                provenance = self.alias.value_provenance(ins.pointer)
                taint[name] = (
                    isinstance(ins.result.type, IntType)
                    and provenance.kind != "alloca"
                )
            elif isinstance(ins, (BinOp, ICmp)):
                deps[name] = self._cap(tuple(dict.fromkeys(
                    value_deps(ins.lhs) + value_deps(ins.rhs)
                )))
                taint[name] = value_taint(ins.lhs) or value_taint(ins.rhs)
            elif isinstance(ins, Cast):
                deps[name] = value_deps(ins.value)
                taint[name] = value_taint(ins.value)
            elif isinstance(ins, GetElementPtr):
                collected: list[Dep] = list(value_deps(ins.base))
                for index in ins.indices:
                    collected.extend(
                        Dep(d.source, True, d.store_hops)
                        for d in value_deps(index)
                    )
                deps[name] = self._cap(tuple(dict.fromkeys(collected)))
                taint[name] = any(
                    value_taint(index) for index in ins.indices
                ) or value_taint(ins.base)
            elif isinstance(ins, Call):
                deps[name] = self._cap(tuple(dict.fromkeys(
                    d for arg in ins.args for d in value_deps(arg)
                )))
                taint[name] = True
            elif isinstance(ins, Alloca):
                deps[name] = ()
                taint[name] = False
        return None

    def _build_rf(self) -> None:
        stores = [n for n in self.nodes if n.is_store]
        loads = [n for n in self.nodes if n.is_load]
        stores.sort(key=lambda n: n.position)
        positions = [s.position for s in stores]
        for load in loads:
            lo = bisect.bisect_left(positions, load.position - self.rf_window)
            for store in stores[lo:]:
                if store.position >= load.position + self.rf_window:
                    break
                if not self.before(store, load):
                    continue
                if self.alias.may_alias(store.instruction.pointer,
                                        load.instruction.pointer):
                    self.rf.append((store, load))

    def _extend_through_memory(self, operands=None,
                               max_rounds: int = 4) -> None:
        for _ in range(max_rounds):
            changed = False
            for store, load in self.rf:
                value = store.instruction.value
                result = load.instruction.result
                if result is None:
                    continue
                if isinstance(value, Argument):
                    if not self.taint.get(result.name, False):
                        self.taint[result.name] = True
                        changed = True
                    continue
                if not isinstance(value, Temp):
                    continue
                incoming = self.deps.get(value.name, ())
                existing = dict.fromkeys(self.deps.get(result.name, ()))
                added = False
                for dep in incoming:
                    hopped = Dep(dep.source, dep.via_gep_index,
                                 dep.store_hops + 1)
                    if hopped not in existing:
                        existing[hopped] = None
                        added = True
                if added:
                    self.deps[result.name] = self._cap(tuple(existing))
                    changed = True
                if self.taint.get(value.name, False) and not self.taint.get(
                        result.name, False):
                    self.taint[result.name] = True
                    changed = True
            if changed:
                self._repropagate_registers()
            else:
                break

    def _repropagate_registers(self) -> None:
        deps = self.deps
        taint = self.taint

        def value_deps(value: Value) -> tuple[Dep, ...]:
            if isinstance(value, Temp):
                return deps.get(value.name, ())
            return ()

        def value_taint(value: Value) -> bool:
            if isinstance(value, Temp):
                return taint.get(value.name, False)
            if isinstance(value, Argument):
                return True
            return False

        for node in self.nodes:
            ins = node.instruction
            if ins.result is None or isinstance(ins, (Load, Alloca)):
                continue
            name = ins.result.name
            if isinstance(ins, (BinOp, ICmp)):
                merged = dict.fromkeys(deps.get(name, ()))
                merged.update(dict.fromkeys(
                    value_deps(ins.lhs) + value_deps(ins.rhs)))
                deps[name] = self._cap(tuple(merged))
                taint[name] = taint.get(name, False) or \
                    value_taint(ins.lhs) or value_taint(ins.rhs)
            elif isinstance(ins, Cast):
                merged = dict.fromkeys(deps.get(name, ()))
                merged.update(dict.fromkeys(value_deps(ins.value)))
                deps[name] = self._cap(tuple(merged))
                taint[name] = taint.get(name, False) or value_taint(ins.value)
            elif isinstance(ins, GetElementPtr):
                merged = dict.fromkeys(deps.get(name, ()))
                merged.update(dict.fromkeys(value_deps(ins.base)))
                for index in ins.indices:
                    merged.update(dict.fromkeys(
                        Dep(d.source, True, d.store_hops)
                        for d in value_deps(index)))
                deps[name] = self._cap(tuple(merged))
                taint[name] = taint.get(name, False) or any(
                    value_taint(i) for i in ins.indices) or value_taint(ins.base)


def saeg_facts(aeg: SAEG) -> tuple[list, dict, dict]:
    """``(rf, deps, taint)`` with nodes as ids: rf in list order, deps
    tuples in their order, taint per temp."""
    rf = [(store.nid, load.nid) for store, load in aeg.rf]
    deps = {name: tuple((dep.source, dep.via_gep_index, dep.store_hops)
                        for dep in chain)
            for name, chain in aeg.deps.items()}
    return rf, deps, dict(aeg.taint)


def assert_same_build(function, **kwargs) -> SAEG:
    """Build ``function`` with both implementations, assert identical
    rf/deps/taint (orders included) and return the new S-AEG."""
    new = SAEG(function, **kwargs)
    old = ReferenceSAEG(function, **kwargs)
    new_rf, new_deps, new_taint = saeg_facts(new)
    old_rf, old_deps, old_taint = saeg_facts(old)
    assert new_rf == old_rf, f"{function.name}: rf differs"
    assert list(new_deps) == list(old_deps), f"{function.name}: deps keys"
    for name, chain in old_deps.items():
        assert new_deps[name] == chain, f"{function.name}: deps of %{name}"
    assert list(new_taint.items()) == list(old_taint.items()), \
        f"{function.name}: taint differs"
    return new
