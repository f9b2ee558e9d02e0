"""Interprocedural secret-taint for the sequential constant-time lint.

Propagates the §7 secrecy labels through raw (pre-A-CFG) IR: a cheap
sequential baseline in the sense of Guarnieri et al.'s contract
hierarchy — the policy the speculative engines then strengthen.  No
S-AEG, no window search, no solver; per-function propagation is a
flow-sensitive client of the generic dataflow framework, and
interprocedural flow iterates context-insensitive function summaries
(parameter levels, pointee-object levels, return levels) to a module
fixpoint.

Taint levels form a three-point chain:

- ``0`` public.
- ``1`` secret data — branching on it or using it as an address is a
  sequential constant-time violation (Table 1: CT / DT).
- ``2`` data *fetched through* a secret-derived address — the value an
  out-of-bounds read could have fetched from anywhere, so using it as
  an address again is the universal (Listing 1 / sigalgs) shape
  (Table 1: UCT / UDT).

When no explicit labels are given, every parameter of every public
function is treated as secret (scalars at level 1; what pointer
parameters point to at level 1) — the paper's "audit a crypto
primitive" default, where all inputs are keys/plaintext until declared
otherwise.  Globals default to public; name them in ``secrets`` to
label them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clou.alias import AliasAnalysis, Provenance
from repro.ir import (Argument, Call, Function, Instruction, Load, Module,
                      PointerType, Ret, Store, Temp, Value)

from .dataflow import (DataflowProblem, DataflowSolution, LevelLattice,
                       MapLattice, solve)

PUBLIC, SECRET, TRANSITIVE = 0, 1, 2


def _slot_key(base: str) -> str:
    return f"slot:{base}"


@dataclass
class TaintSummaries:
    """Module-level maps iterated to fixpoint across functions."""

    global_levels: dict[str, int] = field(default_factory=dict)
    param_levels: dict[tuple[str, str], int] = field(default_factory=dict)
    argobj_levels: dict[tuple[str, str], int] = field(default_factory=dict)
    argobj_writes: dict[tuple[str, str], int] = field(default_factory=dict)
    ret_levels: dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> tuple:
        return (dict(self.global_levels), dict(self.param_levels),
                dict(self.argobj_levels), dict(self.argobj_writes),
                dict(self.ret_levels))

    def raise_level(self, table: dict, key, level: int) -> None:
        if level > table.get(key, PUBLIC):
            table[key] = min(level, TRANSITIVE)


class _FunctionTaint(DataflowProblem):
    """Flow-sensitive per-function propagation given module summaries.

    State maps temp names and ``slot:<alloca>`` keys to levels; missing
    keys are public.  Slot stores through the bare alloca pointer are
    strong updates (a re-zeroed local really is public again); element
    stores through GEPs are weak.
    """

    def __init__(self, analysis: "SecretTaintAnalysis", function: Function,
                 alias: AliasAnalysis):
        self.analysis = analysis
        self.function = function
        self.alias = alias

    def lattice(self) -> MapLattice:
        return MapLattice(LevelLattice(TRANSITIVE))

    def value_level(self, value: Value, state: dict) -> int:
        if isinstance(value, Temp):
            return state.get(value.name, PUBLIC)
        if isinstance(value, Argument):
            return self.analysis.summaries.param_levels.get(
                (self.function.name, value.name), PUBLIC)
        # Constants and global addresses are public.
        return PUBLIC

    def object_level(self, prov: Provenance, state: dict) -> int:
        summaries = self.analysis.summaries
        if prov.kind == "alloca":
            return state.get(_slot_key(prov.base), PUBLIC)
        if prov.kind == "global":
            return summaries.global_levels.get(prov.base, PUBLIC)
        if prov.kind == "arg":
            return summaries.argobj_levels.get(
                (self.function.name, prov.base), PUBLIC)
        return PUBLIC

    def _set(self, state: dict, key: str, level: int) -> dict:
        if state.get(key, PUBLIC) == level:
            return state
        state = dict(state)
        if level == PUBLIC:
            state.pop(key, None)
        else:
            state[key] = level
        return state

    def transfer(self, ins: Instruction, state: dict) -> dict:
        if isinstance(ins, Load):
            prov = self.alias.value_provenance(ins.pointer)
            level = self.object_level(prov, state)
            if self.value_level(ins.pointer, state) >= SECRET:
                # Fetched through a secret-derived address: could be any
                # byte in memory (level 2, capped there).
                level = max(level, TRANSITIVE)
            return self._set(state, ins.result.name, min(level, TRANSITIVE))
        if isinstance(ins, Store):
            prov = self.alias.value_provenance(ins.pointer)
            if prov.kind != "alloca":
                return state  # globals/arg objects update via summaries
            level = self.value_level(ins.value, state)
            key = _slot_key(prov.base)
            if prov.offsets == ():
                return self._set(state, key, level)  # strong update
            return self._set(state, key,
                             max(level, state.get(key, PUBLIC)))
        if isinstance(ins, Call):
            return self._transfer_call(ins, state)
        if ins.result is not None:
            level = max((self.value_level(op, state)
                         for op in ins.operands()), default=PUBLIC)
            return self._set(state, ins.result.name, level)
        return state

    def _transfer_call(self, ins: Call, state: dict) -> dict:
        summaries = self.analysis.summaries
        callee = self.analysis.module.functions.get(ins.callee)
        if callee is not None and callee.blocks:
            result_level = summaries.ret_levels.get(ins.callee, PUBLIC)
            writes = {param: summaries.argobj_writes.get(
                (ins.callee, param), PUBLIC)
                for param, _ in callee.params}
            params = [name for name, _ in callee.params]
        else:
            # External call: assume it may copy any input anywhere.
            worst = max((max(self.value_level(a, state),
                             self.object_level(
                                 self.alias.value_provenance(a), state))
                         for a in ins.args), default=PUBLIC)
            result_level = worst
            writes = None
            params = []
        for position, arg in enumerate(ins.args):
            if not isinstance(arg.type, PointerType):
                continue
            prov = self.alias.value_provenance(arg)
            if prov.kind != "alloca":
                continue
            if writes is None:
                written = result_level  # external: worst input level
            else:
                param = params[position] if position < len(params) else None
                written = writes.get(param, PUBLIC) if param else PUBLIC
            if written > PUBLIC:
                key = _slot_key(prov.base)
                state = self._set(state, key,
                                  max(written, state.get(key, PUBLIC)))
        if ins.result is not None:
            state = self._set(state, ins.result.name, result_level)
        return state


class SecretTaintAnalysis:
    """Module-fixpoint secret taint plus per-function solutions."""

    def __init__(self, module: Module, secrets: tuple[str, ...] = (),
                 public: tuple[str, ...] = (),
                 default_secret_params: bool = True,
                 max_rounds: int = 20):
        self.module = module
        self.secrets = tuple(secrets)
        self.public = frozenset(public)
        self.default_secret_params = default_secret_params and not secrets
        self.summaries = TaintSummaries()
        # Objects the *user* (or the default policy) declared secret —
        # the lint's AT findings key on accesses to these.
        self.labeled_objects: set[tuple] = set()
        self._alias: dict[str, AliasAnalysis] = {}
        self.solutions: dict[str, DataflowSolution] = {}
        self._seed()
        self._fixpoint(max_rounds)

    # -- setup -------------------------------------------------------------

    def alias_for(self, function: Function) -> AliasAnalysis:
        analysis = self._alias.get(function.name)
        if analysis is None:
            analysis = AliasAnalysis(function)
            self._alias[function.name] = analysis
        return analysis

    def _label_param(self, function: Function, name: str, type_) -> None:
        if name in self.public:
            return
        if isinstance(type_, PointerType):
            self.summaries.raise_level(
                self.summaries.argobj_levels, (function.name, name), SECRET)
            self.labeled_objects.add(("arg", function.name, name))
        else:
            self.summaries.raise_level(
                self.summaries.param_levels, (function.name, name), SECRET)

    def _seed(self) -> None:
        named = set(self.secrets)
        for name in named:
            if name in self.module.globals:
                self.summaries.raise_level(
                    self.summaries.global_levels, name, SECRET)
                self.labeled_objects.add(("global", name))
        for function in self.module.functions.values():
            for param, type_ in function.params:
                if param in named:
                    self._label_param(function, param, type_)
                elif self.default_secret_params and function.is_public:
                    self._label_param(function, param, type_)

    # -- fixpoint ----------------------------------------------------------

    def _fixpoint(self, max_rounds: int) -> None:
        for _ in range(max_rounds):
            before = self.summaries.snapshot()
            for function in self.module.functions.values():
                if not function.blocks:
                    continue
                self._analyze_function(function)
            if self.summaries.snapshot() == before:
                break

    def _analyze_function(self, function: Function) -> None:
        alias = self.alias_for(function)
        problem = _FunctionTaint(self, function, alias)
        solution = solve(function, problem)
        self.solutions[function.name] = solution
        summaries = self.summaries
        for block in function.blocks:
            for ins, state in solution.instruction_states(block.label):
                if isinstance(ins, Store):
                    prov = alias.value_provenance(ins.pointer)
                    level = problem.value_level(ins.value, state)
                    if level == PUBLIC:
                        continue
                    if prov.kind == "global":
                        summaries.raise_level(
                            summaries.global_levels, prov.base, level)
                    elif prov.kind == "arg":
                        key = (function.name, prov.base)
                        summaries.raise_level(
                            summaries.argobj_writes, key, level)
                        summaries.raise_level(
                            summaries.argobj_levels, key, level)
                elif isinstance(ins, Ret) and ins.value is not None:
                    summaries.raise_level(
                        summaries.ret_levels, function.name,
                        problem.value_level(ins.value, state))
                elif isinstance(ins, Call):
                    self._bind_call(function, problem, alias, ins, state)

    def _bind_call(self, function: Function, problem: _FunctionTaint,
                   alias: AliasAnalysis, ins: Call, state: dict) -> None:
        callee = self.module.functions.get(ins.callee)
        if callee is None or not callee.blocks:
            return
        summaries = self.summaries
        for position, (param, _) in enumerate(callee.params):
            if position >= len(ins.args):
                break
            arg = ins.args[position]
            summaries.raise_level(
                summaries.param_levels, (ins.callee, param),
                problem.value_level(arg, state))
            if isinstance(arg.type, PointerType):
                prov = alias.value_provenance(arg)
                summaries.raise_level(
                    summaries.argobj_levels, (ins.callee, param),
                    problem.object_level(prov, state))
                # Writes the callee makes surface back on caller objects
                # that are themselves summary-tracked.
                written = summaries.argobj_writes.get(
                    (ins.callee, param), PUBLIC)
                if written > PUBLIC:
                    if prov.kind == "global":
                        summaries.raise_level(
                            summaries.global_levels, prov.base, written)
                    elif prov.kind == "arg":
                        summaries.raise_level(
                            summaries.argobj_writes,
                            (function.name, prov.base), written)
                        summaries.raise_level(
                            summaries.argobj_levels,
                            (function.name, prov.base), written)

    # -- queries (used by the lint) ----------------------------------------

    def is_labeled(self, function: Function, prov: Provenance) -> bool:
        if prov.kind == "global":
            return ("global", prov.base) in self.labeled_objects
        if prov.kind == "arg":
            return ("arg", function.name, prov.base) in self.labeled_objects
        return False

    def walk(self, function: Function):
        """Yield (block label, index, instruction, state, problem, alias)
        for every instruction of ``function`` at the module fixpoint."""
        solution = self.solutions.get(function.name)
        if solution is None:
            return
        problem = solution.problem
        alias = self.alias_for(function)
        for block in function.blocks:
            for index, (ins, state) in enumerate(
                    solution.instruction_states(block.label)):
                yield block.label, index, ins, state, problem, alias
