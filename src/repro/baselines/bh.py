"""A Binsec/Haunted-style baseline detector (§6, "BH").

BH performs *relational symbolic execution*: it explores architectural
paths one by one, tracking transient states alongside, and reports
unclassified "bugs" where a transient value reaches a memory address or
branch condition.  Relative to Clou it has the qualitative properties
Table 2 exhibits:

- it does **not** classify transmitters (one flat bug count);
- its path enumeration is exponential in branch count, so it times out
  on large functions (donna, mee-cbc) where Clou's directed S-AEG search
  completes;
- it misses gadget classes Clou's taxonomy separates (it reports fewer
  bugs on the litmus suites).

This is a faithful *behavioural* stand-in for the binary-level tool (we
cannot run the real Binsec); see DESIGN.md's substitution table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.clou.acfg import build_acfg
from repro.errors import ReproError
from repro.ir import (
    BinOp,
    Branch,
    Cast,
    GetElementPtr,
    ICmp,
    Jump,
    Load,
    Module,
    Store,
    Temp,
    Value,
)
from repro.minic import compile_c


@dataclass(frozen=True)
class BHBug:
    """An unclassified finding: a transient value reached a sink."""

    function: str
    block: str
    index: int
    sink: str  # 'address' | 'branch'

    def __str__(self) -> str:
        return f"bug @ {self.function}/{self.block}#{self.index} ({self.sink})"


@dataclass
class BHReport:
    name: str
    engine: str
    bugs: list[BHBug] = field(default_factory=list)
    elapsed: float = 0.0
    timed_out: bool = False
    paths_explored: int = 0
    error: str | None = None

    @property
    def bug_count(self) -> int:
        return len(set(self.bugs))

    def summary(self) -> str:
        status = " TIMEOUT" if self.timed_out else ""
        return (f"{self.name} [bh-{self.engine}] {self.bug_count} bugs, "
                f"{self.paths_explored} paths, {self.elapsed:.2f}s{status}")


class BHAnalyzer:
    """Path-by-path relational symbolic exploration of one function."""

    def __init__(self, module: Module, function_name: str, engine: str,
                 rob_size: int = 200, lsq_size: int = 20,
                 timeout_seconds: float = 30.0,
                 max_paths: int = 20_000):
        self.module = module
        self.function_name = function_name
        self.engine = engine
        self.rob_size = rob_size
        self.lsq_size = lsq_size
        self.timeout_seconds = timeout_seconds
        self.max_paths = max_paths

    def run(self) -> BHReport:
        report = BHReport(name=self.function_name, engine=self.engine)
        started = time.monotonic()
        try:
            acfg = build_acfg(self.module, self.function_name)
        except ReproError as error:
            report.error = str(error)
            report.elapsed = time.monotonic() - started
            return report
        function = acfg.function
        blocks = {b.label: b for b in function.blocks}
        deadline = started + self.timeout_seconds

        # Depth-first path enumeration — the exponential heart of
        # symbolic execution.  Each path carries its own transient-state
        # tracking (the "haunted" relational trick merges transient and
        # architectural exploration per path, which we model by carrying
        # both on one walk).
        stack: list[tuple[str, set[str], int]] = [(function.entry.label,
                                                   set(), 0)]
        bugs: set[BHBug] = set()
        while stack:
            if time.monotonic() > deadline:
                report.timed_out = True
                break
            if report.paths_explored >= self.max_paths:
                report.timed_out = True
                break
            label, transient, depth = stack.pop()
            block = blocks[label]
            transient = set(transient)
            store_window: list[str] = []
            for index, ins in enumerate(block.instructions):
                if isinstance(ins, Store):
                    pointer = self._prov(ins.pointer)
                    store_window.append(pointer)
                    if self.engine == "stl" and len(store_window) <= self.lsq_size:
                        # A younger load may bypass this store.
                        transient.add(f"mem:{pointer}")
                elif isinstance(ins, Load):
                    pointer = self._prov(ins.pointer)
                    tainted_addr = self._uses_transient(ins.pointer, transient)
                    if tainted_addr:
                        bugs.add(BHBug(self.function_name, label, index,
                                       "address"))
                    if ins.result is not None:
                        if f"mem:{pointer}" in transient or self._attacker(ins):
                            transient.add(ins.result.name)
                elif isinstance(ins, (BinOp, ICmp)):
                    if self._uses_transient(ins.lhs, transient) or \
                            self._uses_transient(ins.rhs, transient):
                        transient.add(ins.result.name)
                elif isinstance(ins, Cast):
                    if self._uses_transient(ins.value, transient):
                        transient.add(ins.result.name)
                elif isinstance(ins, GetElementPtr):
                    used = self._uses_transient(ins.base, transient) or any(
                        self._uses_transient(i, transient)
                        for i in ins.indices
                    )
                    if used:
                        transient.add(ins.result.name)
                elif isinstance(ins, Branch):
                    if self.engine == "pht" and \
                            self._uses_transient(ins.cond, transient):
                        bugs.add(BHBug(self.function_name, label, index,
                                       "branch"))
            terminator = block.terminator
            if isinstance(terminator, Branch):
                stack.append((terminator.then_label, transient, depth + 1))
                stack.append((terminator.else_label, transient, depth + 1))
            elif isinstance(terminator, Jump):
                stack.append((terminator.label, transient, depth + 1))
            else:
                report.paths_explored += 1
        report.bugs = sorted(bugs, key=lambda b: (b.block, b.index, b.sink))
        report.elapsed = time.monotonic() - started
        return report

    @staticmethod
    def _prov(value: Value) -> str:
        if isinstance(value, Temp):
            return value.name
        return str(value)

    def _uses_transient(self, value: Value, transient: set[str]) -> bool:
        if isinstance(value, Temp):
            return value.name in transient
        return False

    def _attacker(self, ins: Load) -> bool:
        """PHT mode: loads of attacker-reachable integers seed taint."""
        if self.engine != "pht":
            return False
        from repro.ir import IntType

        return isinstance(ins.result.type, IntType)


def bh_analyze_source(source: str, engine: str = "pht",
                      timeout_seconds: float = 30.0,
                      name: str = "") -> list[BHReport]:
    """Run the BH baseline on every public function of a C source."""
    module = compile_c(source, name=name)
    reports = []
    for function in module.public_functions():
        analyzer = BHAnalyzer(module, function.name, engine,
                              timeout_seconds=timeout_seconds)
        reports.append(analyzer.run())
    return reports
