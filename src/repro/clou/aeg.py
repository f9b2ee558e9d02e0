"""The Symbolic Abstract Event Graph (S-AEG, §5.2).

An S-AEG over-approximates every candidate execution of an A-CFG
function.  Nodes are the A-CFG's instructions; the symbolic edge classes
of the paper map onto:

- control flow (po/tfo): the block DAG, whose reachability bitsets
  answer the Fig. 7 realizability check exactly (the SAT encoding of
  the path conditions is kept as a differential reference in
  :mod:`repro.fuzz.oracles`);
- dep (addr/addr_gep/data/ctrl): register dataflow, extended through
  memory with ``(data.rf)*`` chains (§5.3);
- com (rf): store→load pairs under the alias analysis of §5.2;
- comx: left unconstrained except by fetch order (§5.2), which is what
  the leakage engines' window/ROB bounds realize.

Taint (attacker control, §5.3) is computed here as well: all top-level
function inputs and all non-pointer data in memory are attacker-
controlled; pointers loaded from memory are architecturally trusted
(the basis of the ``addr_gep`` filter).
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from repro.clou.alias import AliasAnalysis
from repro.errors import ModelError
from repro.ir import (
    Alloca,
    Argument,
    BinOp,
    Branch,
    Call,
    Cast,
    FenceInstr,
    Function,
    GetElementPtr,
    ICmp,
    Instruction,
    IntType,
    Load,
    Store,
    Temp,
    Value,
)

class Dep(NamedTuple):
    """A dependency chain head: the load whose result flows here.

    ``via_gep_index`` marks chains that pass through a getelementptr
    *index* operand (the addr_gep class, §5.2); ``store_hops`` counts the
    (data.rf) memory hops the chain took (§6.2.1 restriction 2 bounds
    this).
    """

    source: int  # node id of the originating Load
    via_gep_index: bool = False
    store_hops: int = 0


@dataclass(eq=False)  # identity equality/hash: nodes are unique instances
class AEGNode:
    nid: int
    instruction: Instruction
    block: str
    index: int      # instruction index within the block
    position: int   # global topological position

    @property
    def is_memory(self) -> bool:
        return isinstance(self.instruction, (Load, Store, Call))

    @property
    def is_load(self) -> bool:
        return isinstance(self.instruction, Load)

    @property
    def is_store(self) -> bool:
        return isinstance(self.instruction, Store)

    @property
    def is_branch(self) -> bool:
        return isinstance(self.instruction, Branch)

    @property
    def is_fence(self) -> bool:
        return isinstance(self.instruction, FenceInstr)

    def describe(self) -> str:
        return f"[{self.block}#{self.index}] {self.instruction}"


_position = attrgetter("position")


class _Operands:
    """Def-use index of the register nodes (BinOp, ICmp, Cast,
    GetElementPtr) for the (data.rf)* extension: each node's operand
    temps, the register nodes reading each temp in node order, and the
    nodes due a re-run in the next register pass."""

    __slots__ = ("records", "users", "stale")

    def __init__(self):
        self.records: dict[int, tuple] = {}
        self.users: dict[str, list[int]] = {}
        self.stale: set[int] = set()

    def add(self, nid: int, ins: Instruction) -> tuple:
        """Index one register node; returns its record ``(result,
        plain operand temps, index operand temps, reads an argument)``."""
        if isinstance(ins, GetElementPtr):
            plain, indexed = (ins.base,), ins.indices
        elif isinstance(ins, Cast):
            plain, indexed = (ins.value,), ()
        else:
            plain, indexed = (ins.lhs, ins.rhs), ()
        record = (ins.result.name,
                  tuple(v.name for v in plain if isinstance(v, Temp)),
                  tuple(v.name for v in indexed if isinstance(v, Temp)),
                  any(isinstance(v, Argument) for v in (*plain, *indexed)))
        self.records[nid] = record
        for name in dict.fromkeys(record[1] + record[2]):
            self.users.setdefault(name, []).append(nid)
        return record


class SAEG:
    """The S-AEG of one A-CFG function."""

    def __init__(self, function: Function, alias: AliasAnalysis | None = None,
                 rf_window: int = 500, max_deps_per_temp: int = 32):
        self.function = function
        self.alias = alias or AliasAnalysis(function)
        self.nodes: list[AEGNode] = []
        self.by_block: dict[str, list[AEGNode]] = {}
        self._block_order: list[str] = []
        self._block_position: dict[str, int] = {}
        self._reach_mask: dict[str, int] = {}
        self._block_bit: dict[str, int] = {}
        self._successors: dict[str, list[str]] = {}
        self._predecessors: dict[str, list[str]] = {}
        # Per block: the index of its last lfence (-1 if none) and its
        # loads, stores and branches in index order, for the windows.
        self._last_fence: dict[str, int] = {}
        self._block_loads: dict[str, list[AEGNode]] = {}
        self._block_stores: dict[str, list[AEGNode]] = {}
        self._block_branches: dict[str, list[AEGNode]] = {}
        # Per block: the blocks reachable through fence-free intermediate
        # blocks only (fence_free_between), and the memoized windows.
        self._clear_mask: dict[str, int] = {}
        self._windows: dict[tuple[str, int], _BlockWindow] = {}
        self.rf_window = rf_window
        self.max_deps_per_temp = max_deps_per_temp
        self._build_nodes()
        self._build_reachability()
        self.deps: dict[str, tuple[Dep, ...]] = {}
        self.taint: dict[str, bool] = {}
        operands = self._build_dataflow()
        self.rf: list[tuple[AEGNode, AEGNode]] = []
        self._build_rf()
        self._extend_through_memory(operands)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _topological_blocks(self) -> list[str]:
        order: list[str] = []
        indegree: dict[str, int] = {b.label: 0 for b in self.function.blocks}
        successors: dict[str, list[str]] = {}
        for block in self.function.blocks:
            successors[block.label] = block.successors()
            for succ in block.successors():
                indegree[succ] = indegree.get(succ, 0) + 1
        worklist = [b.label for b in self.function.blocks if indegree[b.label] == 0]
        while worklist:
            label = worklist.pop()
            order.append(label)
            for succ in successors.get(label, ()):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    worklist.append(succ)
        if len(order) < len(self.function.blocks):
            # Every unordered block has an unordered predecessor, so
            # walking predecessors among them must revisit a block.
            stuck = [b.label for b in self.function.blocks if indegree[b.label]]
            predecessor = {succ: label for label in stuck
                           for succ in successors[label]}
            seen: set[str] = set()
            label = stuck[0]
            while label not in seen:
                seen.add(label)
                label = predecessor[label]
            raise ModelError(
                f"{self.function.name}: control-flow cycle through block "
                f"{label!r}; the S-AEG needs the loop-summarized A-CFG "
                "(build_acfg)")
        self._successors = successors
        return order

    def _build_nodes(self) -> None:
        order = self._topological_blocks()
        self._block_order = order
        self._block_position = {label: i for i, label in enumerate(order)}
        position = 0
        nid = 0
        blocks_by_label = {b.label: b for b in self.function.blocks}
        self._predecessors = {label: [] for label in order}
        for label in order:
            for succ in self._successors[label]:
                self._predecessors[succ].append(label)
            block = blocks_by_label[label]
            block_nodes = []
            loads, stores, branches = [], [], []
            last_fence = -1
            for index, ins in enumerate(block.instructions):
                node = AEGNode(nid=nid, instruction=ins, block=label,
                               index=index, position=position)
                self.nodes.append(node)
                block_nodes.append(node)
                if isinstance(ins, Load):
                    loads.append(node)
                elif isinstance(ins, Store):
                    stores.append(node)
                elif isinstance(ins, Branch):
                    branches.append(node)
                elif isinstance(ins, FenceInstr):
                    last_fence = index
                nid += 1
                position += 1
            self.by_block[label] = block_nodes
            self._block_loads[label] = loads
            self._block_stores[label] = stores
            self._block_branches[label] = branches
            self._last_fence[label] = last_fence

    def _build_reachability(self) -> None:
        self._block_bit = {
            label: 1 << i for i, label in enumerate(self._block_order)
        }
        bit = self._block_bit
        fenced = self._last_fence
        for label in reversed(self._block_order):
            mask = bit[label]
            clear = 0
            for succ in self._successors.get(label, ()):
                mask |= self._reach_mask[succ]
                clear |= bit[succ] if fenced[succ] >= 0 \
                    else bit[succ] | self._clear_mask[succ]
            self._reach_mask[label] = mask
            self._clear_mask[label] = clear

    def window(self, anchor: AEGNode, bound: int) -> "WindowView":
        """The §6.2.1 sliding window of ``anchor``: every node from which
        the anchor is reachable within ``bound`` fetched instructions.

        The reverse walk runs once per (block, bound), from the block's
        entry (:meth:`_block_window`); an anchor at index ``i`` adds
        ``i`` to every distance of that walk.  This is exact: minimal
        exit distances do not depend on the bound, the bound only decides
        where the walk stops, and a path of at most ``bound - i`` from
        the block entry is a path of at most ``bound`` from the anchor."""
        fence = self._last_fence[anchor.block]
        if fence >= anchor.index:
            fence = max((node.index
                         for node in self.by_block[anchor.block][:anchor.index]
                         if node.is_fence), default=-1)
        key = (anchor.block, bound)
        table = self._windows.get(key)
        if table is None:
            table = self._windows[key] = self._block_window(*key)
        return WindowView(self, anchor, bound, fence, table)

    def _block_window(self, label: str, bound: int) -> "_BlockWindow":
        """The window of the entry of block ``label``.

        A path leaves a block only through its last node, so a node's
        distance is its block's *exit* distance (instructions strictly
        between the block's last node and the entry) plus the block's
        suffix after it.  One reverse walk over blocks, in decreasing
        topological position so each block is final when popped, records
        the minimal exit distance and the minimal exit distance along a
        fence-free path, and stops extending a block once its exit
        distance plus its size exceeds ``bound``."""
        exits: dict[str, int] = {}
        clear: dict[str, int] = {}
        blocks: list[str] = []
        position = self._block_position
        heap: list[tuple[int, str]] = []
        through = clear_through = 0
        while True:
            if through <= bound:
                for pred in self._predecessors[label]:
                    known = exits.get(pred)
                    if known is None:
                        exits[pred] = through
                        heapq.heappush(heap, (-position[pred], pred))
                    elif through < known:
                        exits[pred] = through
                    if clear_through is not None and \
                            clear_through <= bound and \
                            clear_through < clear.get(pred, bound + 1):
                        clear[pred] = clear_through
            if not heap:
                break
            label = heapq.heappop(heap)[1]
            blocks.append(label)
            size = len(self.by_block[label])
            through = exits[label] + size
            clear_through = None
            if self._last_fence[label] < 0 and label in clear:
                clear_through = clear[label] + size
        kinds: tuple[list, list, list] = ([], [], [])
        for label in reversed(blocks):  # position order
            last = len(self.by_block[label]) - 1
            exit_distance = exits[label]
            clear_exit = clear.get(label)
            fence = self._last_fence[label]
            for found, nodes in zip(kinds, (self._block_branches[label],
                                            self._block_loads[label],
                                            self._block_stores[label])):
                for node in nodes:
                    suffix = last - node.index
                    if exit_distance + suffix > bound:
                        continue
                    free = None
                    if clear_exit is not None and fence <= node.index and \
                            clear_exit + suffix <= bound:
                        free = clear_exit + suffix
                    found.append((node, exit_distance + suffix, free))
        return _BlockWindow(exits, clear, *kinds)

    # ------------------------------------------------------------------
    # Ordering and distances
    # ------------------------------------------------------------------

    def block_reaches(self, a: str, b: str) -> bool:
        return bool(self._reach_mask[a] & self._block_bit[b])

    def before(self, a: AEGNode, b: AEGNode) -> bool:
        """a may execute before b on some path (strict)."""
        if a.block == b.block:
            return a.index < b.index
        return self.block_reaches(a.block, b.block)

    def co_executable(self, a: AEGNode, b: AEGNode) -> bool:
        return a.block == b.block or self.before(a, b) or self.before(b, a)

    def fence_free_between(self, a: AEGNode, b: AEGNode) -> bool:
        """Is there a path from a to b, of any length, with no lfence
        strictly between?"""
        if not self.before(a, b):
            return False
        if a.block == b.block:
            return not any(
                node.is_fence
                for node in self.by_block[a.block][a.index + 1:b.index]
            )
        if self._last_fence[a.block] > a.index:
            return False
        if any(node.is_fence for node in self.by_block[b.block][:b.index]):
            return False
        return bool(self._clear_mask[a.block] & self._block_bit[b.block])

    # ------------------------------------------------------------------
    # Dataflow: deps and taint
    # ------------------------------------------------------------------

    def _cap(self, deps: tuple[Dep, ...]) -> tuple[Dep, ...]:
        if len(deps) > self.max_deps_per_temp:
            return deps[:self.max_deps_per_temp]
        return deps

    def _build_dataflow(self) -> "_Operands":
        """Deps and taint of every temp, in one pass in node order.

        Register nodes (BinOp, ICmp, Cast, GetElementPtr) start from no
        deps and no taint and run :meth:`_propagate` once.  Returns the
        def-use index the (data.rf)* extension re-runs them from."""
        deps = self.deps
        taint = self.taint
        operands = _Operands()

        def value_deps(value: Value) -> tuple[Dep, ...]:
            if isinstance(value, Temp):
                return deps.get(value.name, ())
            return ()

        for node in self.nodes:
            ins = node.instruction
            if ins.result is None:
                continue
            name = ins.result.name
            if isinstance(ins, Load):
                deps[name] = (Dep(node.nid),)
                # Non-pointer data in memory is attacker-controlled;
                # loaded pointers are architecturally trusted (§5.3).
                # Stack slots are the exception: their contents are only
                # tainted if a tainted value was stored into them, which
                # the (data.rf) propagation below discovers (this is the
                # taint *tracking* of §5.3 — it is what filters benign
                # loop counters in crypto code).
                provenance = self.alias.value_provenance(ins.pointer)
                taint[name] = (
                    isinstance(ins.result.type, IntType)
                    and provenance.kind != "alloca"
                )
            elif isinstance(ins, (BinOp, ICmp, Cast, GetElementPtr)):
                deps[name] = ()
                taint[name] = False
                self._propagate(operands.add(node.nid, ins))
            elif isinstance(ins, Call):
                deps[name] = self._cap(tuple(dict.fromkeys(
                    d for arg in ins.args for d in value_deps(arg)
                )))
                taint[name] = True  # havoc result is untrusted
            elif isinstance(ins, Alloca):
                deps[name] = ()
                taint[name] = False
            # A register node that read this temp before its definition
            # (only hand-built IR does) saw no value for it: it is stale
            # until the first register pass.
            operands.stale.update(operands.users.get(name, ()))
        return operands

    def _propagate(self, record: tuple) -> bool:
        """Merge a register node's operand deps and taint into its own;
        True when either grew.  The merge appends to the node's chain
        before capping, so a chain only grows at its end and a capped
        chain never changes again."""
        name, plain, indexed, reads_argument = record
        deps = self.deps
        taint = self.taint
        grew = False
        old = deps[name]
        if len(old) < self.max_deps_per_temp:
            merged = dict.fromkeys(old)
            for operand in plain:
                merged.update(dict.fromkeys(deps.get(operand, ())))
            for operand in indexed:
                merged.update(dict.fromkeys(
                    Dep(dep.source, True, dep.store_hops)
                    for dep in deps.get(operand, ())))
            if len(merged) > len(old):
                deps[name] = self._cap(tuple(merged))
                grew = True
        if not taint[name] and (
                reads_argument  # top-level inputs are attacker-controlled
                or any(taint.get(operand, False) for operand in plain)
                or any(taint.get(operand, False) for operand in indexed)):
            taint[name] = True
            grew = True
        return grew

    # ------------------------------------------------------------------
    # rf over memory, and (data.rf)* extension
    # ------------------------------------------------------------------

    def _build_rf(self) -> None:
        """Store→load pairs under the §5.2 alias analysis, restricted to
        the sliding window (positions within ``rf_window``).

        Stores are grouped once by the base of their pointer's
        provenance.  A load draws candidates only from the groups
        :meth:`AliasAnalysis.alias` can answer MAY or MUST for: an
        alloca load from its own slot and the unknown bases, an arg load
        from the unknown bases, every arg and every global, a global
        load from the unknown bases, every arg and its own global, and
        an unknown load from every store.  A store can only precede a
        load at a smaller position, so each group is bisected to
        ``[position - rf_window, position)``; the candidates then pass
        the ``before`` and ``may_alias`` tests in position order."""
        provenance = self.alias.value_provenance
        by_base: dict[tuple[str, str], list[AEGNode]] = {}
        by_kind: dict[str, list[AEGNode]] = {}
        everything: list[AEGNode] = []
        for node in self.nodes:
            if node.is_store:
                source = provenance(node.instruction.pointer)
                by_base.setdefault((source.kind, source.base), []).append(node)
                by_kind.setdefault(source.kind, []).append(node)
                everything.append(node)

        def group(nodes: list[AEGNode] | None):
            return (nodes, [n.position for n in nodes]) if nodes else None

        bases = {key: group(nodes) for key, nodes in by_base.items()}
        unknown, args, globals_ = (group(by_kind.get(kind))
                                   for kind in ("unknown", "arg", "global"))
        every = (group(everything),)
        window = self.rf_window
        before = self.before
        may_alias = self.alias.may_alias
        rf = self.rf
        for load in self.nodes:
            if not load.is_load:
                continue
            pointer = load.instruction.pointer
            source = provenance(pointer)
            kind = source.kind
            if kind == "alloca":
                groups = (bases.get((kind, source.base)), unknown)
            elif kind == "arg":
                groups = (unknown, args, globals_)
            elif kind == "global":
                groups = (unknown, args, bases.get((kind, source.base)))
            else:
                groups = every
            low = load.position - window
            high = min(load.position, load.position + window)
            candidates: list[AEGNode] = []
            for found in groups:
                if found is not None:
                    nodes, positions = found
                    lo = bisect.bisect_left(positions, low)
                    candidates.extend(
                        nodes[lo:bisect.bisect_left(positions, high, lo)])
            candidates.sort(key=_position)
            for store in candidates:
                if before(store, load) and \
                        may_alias(store.instruction.pointer, pointer):
                    rf.append((store, load))

    def _extend_through_memory(self, operands: "_Operands",
                               max_rounds: int = 4) -> None:
        """(data.rf)* — §5.3: a loaded value can be stored and re-loaded
        any number of times before its use as an address.  Each memory hop
        increments ``store_hops``.

        The result is that of sweeping, for up to ``max_rounds`` rounds,
        every rf pair in list order and then every register node in node
        order, each seeing every update made before it, and stopping
        after a round in which no pair found a hopped dep or taint that
        its load lacked.  Both sweeps are change-driven here: a pair
        re-runs only when its stored value's deps or taint changed since
        it last ran, a register node only when an operand did.
        Re-running either over unchanged inputs is a no-op, because
        merges only append before capping: a chain keeps every dep it
        once held, or is capped and never changes again.  So a round in
        which nothing grew ends the loop, unless a pair's hopped deps
        were cut off by the cap; that pair still counts as finding one,
        and its register pass runs for any stale node
        (:meth:`_hops_cut_off`)."""
        deps = self.deps
        taint = self.taint
        cap = self.max_deps_per_temp
        pairs: list[tuple[str | None, str] | None] = []
        readers: dict[str, list[int]] = {}   # temp -> pairs storing it
        for i, (store, load) in enumerate(self.rf):
            value = store.instruction.value
            result = load.instruction.result
            if result is None or not isinstance(value, (Argument, Temp)):
                pairs.append(None)  # a constant store carries nothing
            elif isinstance(value, Temp):
                readers.setdefault(value.name, []).append(i)
                pairs.append((value.name, result.name))
            else:
                pairs.append((None, result.name))  # a spilled parameter
        dirty = {i for i, pair in enumerate(pairs) if pair is not None}
        for _ in range(max_rounds):
            heap = sorted(dirty)
            queued = set(heap)
            dirty.clear()
            grew = False
            while heap:
                i = heapq.heappop(heap)
                value, result = pairs[i]
                changed = False
                if value is None:
                    # Spilled parameters are attacker-controlled inputs.
                    tainted = True
                else:
                    existing = deps[result]
                    incoming = deps.get(value, ())
                    if incoming and len(existing) < cap:
                        merged = dict.fromkeys(existing)
                        merged.update(dict.fromkeys(
                            Dep(dep.source, dep.via_gep_index,
                                dep.store_hops + 1)
                            for dep in incoming))
                        if len(merged) > len(existing):
                            deps[result] = self._cap(tuple(merged))
                            changed = True
                    # Taint flows through memory as well.
                    tainted = taint.get(value, False)
                if tainted and not taint.get(result, False):
                    taint[result] = True
                    changed = True
                if not changed:
                    continue
                grew = True
                for j in readers.get(result, ()):
                    if j <= i:
                        dirty.add(j)
                    elif j not in queued:
                        queued.add(j)
                        heapq.heappush(heap, j)
                operands.stale.update(operands.users.get(result, ()))
            if not grew and not (operands.stale and self._hops_cut_off(pairs)):
                break
            for name in self._repropagate_registers(operands):
                dirty.update(readers.get(name, ()))

    def _hops_cut_off(self, pairs: list[tuple[str | None, str] | None]
                      ) -> bool:
        """Would re-running every rf pair find a hopped dep that its
        load's chain lacks?  Only a capped chain can lack one after a
        round that changed nothing; the full re-run counted that pair
        as a change and ran one more register pass."""
        deps = self.deps
        for pair in pairs:
            if pair is None or pair[0] is None:
                continue
            value, result = pair
            existing = set(deps[result])
            if any(Dep(dep.source, dep.via_gep_index, dep.store_hops + 1)
                   not in existing for dep in deps.get(value, ())):
                return True
        return False

    def _repropagate_registers(self, operands: "_Operands") -> list[str]:
        """Re-run the stale register nodes in node order; returns the
        temps whose deps or taint grew."""
        heap = sorted(operands.stale)
        queued = set(heap)
        operands.stale.clear()
        grown = []
        while heap:
            nid = heapq.heappop(heap)
            record = operands.records[nid]
            if not self._propagate(record):
                continue
            name = record[0]
            grown.append(name)
            for user in operands.users.get(name, ()):
                if user <= nid:
                    operands.stale.add(user)
                elif user not in queued:
                    queued.add(user)
                    heapq.heappush(heap, user)
        return grown

    # ------------------------------------------------------------------
    # Queries used by the engines
    # ------------------------------------------------------------------

    def node_of(self, nid: int) -> AEGNode:
        return self.nodes[nid]

    def address_deps(self, node: AEGNode) -> tuple[Dep, ...]:
        """Dependency heads flowing into this node's address operand."""
        ins = node.instruction
        pointer: Value | None = None
        if isinstance(ins, Load):
            pointer = ins.pointer
        elif isinstance(ins, Store):
            pointer = ins.pointer
        elif isinstance(ins, Call):
            collected: list[Dep] = []
            for arg in ins.args:
                if isinstance(arg, Temp):
                    collected.extend(self.deps.get(arg.name, ()))
            return tuple(dict.fromkeys(collected))
        if isinstance(pointer, Temp):
            return self.deps.get(pointer.name, ())
        return ()

    def branch_cond_deps(self, node: AEGNode) -> tuple[Dep, ...]:
        ins = node.instruction
        if isinstance(ins, Branch) and isinstance(ins.cond, Temp):
            return self.deps.get(ins.cond.name, ())
        return ()

    def value_tainted(self, value: Value) -> bool:
        if isinstance(value, Temp):
            return self.taint.get(value.name, False)
        if isinstance(value, Argument):
            return True
        return False

    def loads(self) -> list[AEGNode]:
        return [n for n in self.nodes if n.is_load]

    def stores(self) -> list[AEGNode]:
        return [n for n in self.nodes if n.is_store]

    def branches(self) -> list[AEGNode]:
        return [n for n in self.nodes if n.is_branch]

    def memory_nodes(self) -> list[AEGNode]:
        return [n for n in self.nodes if n.is_memory]

    @property
    def size(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # Realizability (Fig. 7)
    # ------------------------------------------------------------------

    def realizable(self, nodes: list[AEGNode]) -> bool:
        """Can all given nodes execute in ONE architectural path (Fig. 7)?

        Every model of the Fig. 7 path constraints is one path rooted at
        the entry (the entry is forced, an executed block takes exactly
        one successor, and a non-entry block executes iff an incoming
        edge is taken), and the A-CFG is a DAG.  So the nodes' blocks,
        sorted by topological position, must form a reachability chain
        that starts at the entry: O(k) bitset tests, exact, never
        undecided."""
        position = self._block_position
        current = self._reach_mask[self.function.entry.label]
        for label in sorted({node.block for node in nodes},
                            key=position.__getitem__):
            if not current & self._block_bit[label]:
                return False
            current = self._reach_mask[label]
        return True


class _BlockWindow(NamedTuple):
    """The window of one block's entry within one bound
    (:meth:`SAEG._block_window`): per block, the minimal exit distance
    and the minimal fence-free exit distance, and per kind, in position
    order, ``(node, distance, fence-free distance or None)`` for every
    branch, load and store within the bound."""

    exits: dict[str, int]
    clear: dict[str, int]
    branches: list[tuple[AEGNode, int, int | None]]
    loads: list[tuple[AEGNode, int, int | None]]
    stores: list[tuple[AEGNode, int, int | None]]


class WindowView:
    """The §6.2.1 sliding window of one anchor (see :meth:`SAEG.window`).

    ``distance(n)`` is the minimal number of fetched instructions
    strictly between n and the anchor (None if the anchor is not
    reachable within the bound); ``fence_free(n)`` is True when some
    path of at most ``bound`` instructions from n to the anchor carries
    no intervening lfence.  Both are arithmetic on the anchor block's
    :class:`_BlockWindow`, the anchor's index, the node's block size and
    index, and the last fences.  The fence-free distances of the table
    hold only when no lfence precedes the anchor in its block.
    """

    __slots__ = ("anchor", "bound", "_saeg", "_fence", "_table")

    def __init__(self, saeg: SAEG, anchor: AEGNode, bound: int, fence: int,
                 table: _BlockWindow):
        self.anchor = anchor
        self.bound = bound
        self._saeg = saeg
        self._fence = fence      # last lfence before the anchor, or -1
        self._table = table      # the window of the anchor block's entry

    def _suffix(self, node: AEGNode) -> int:
        """Instructions after ``node`` in its block, plus the anchor's
        prefix in its own block."""
        return len(self._saeg.by_block[node.block]) - 1 - node.index + \
            self.anchor.index

    def distance(self, node: AEGNode) -> int | None:
        if node.block == self.anchor.block:
            distance = self.anchor.index - node.index - 1
        else:
            exit_distance = self._table.exits.get(node.block)
            if exit_distance is None:
                return None
            distance = exit_distance + self._suffix(node)
        return distance if 0 <= distance <= self.bound else None

    def contains(self, node: AEGNode) -> bool:
        return self.distance(node) is not None

    def fence_free(self, node: AEGNode) -> bool:
        if node.block == self.anchor.block:
            return self._fence <= node.index and \
                self.distance(node) is not None
        if self._fence >= 0:
            return False
        exit_distance = self._table.clear.get(node.block)
        return exit_distance is not None and \
            self._saeg._last_fence[node.block] <= node.index and \
            exit_distance + self._suffix(node) <= self.bound

    def _within(self, entries: list[tuple[AEGNode, int, int | None]],
                kinds: dict[str, list[AEGNode]], bound: int,
                fence_free: bool) -> list[AEGNode]:
        """The nodes of one kind within ``bound`` (and, with
        ``fence_free``, on a fence-free path within the window's
        bound), in position order."""
        bound = min(bound, self.bound)
        anchor = self.anchor
        limit = bound - anchor.index
        if not fence_free:
            found = [node for node, distance, _ in entries
                     if distance <= limit]
        elif self._fence < 0:
            clear_limit = self.bound - anchor.index
            found = [node for node, distance, free in entries
                     if distance <= limit and free is not None
                     and free <= clear_limit]
        else:
            found = []
        # Index j before the anchor is within iff anchor - 1 - j <= bound,
        # and fence-free iff no lfence lies after it.
        first = anchor.index - 1 - bound
        if fence_free:
            first = max(first, self._fence)
        found.extend(node for node in kinds[anchor.block]
                     if first <= node.index < anchor.index)
        return found

    def branches_within(self, bound: int,
                        fence_free: bool = False) -> list[AEGNode]:
        return self._within(self._table.branches,
                            self._saeg._block_branches, bound, fence_free)

    def loads_within(self, bound: int,
                     fence_free: bool = False) -> list[AEGNode]:
        return self._within(self._table.loads,
                            self._saeg._block_loads, bound, fence_free)

    def stores_within(self, bound: int,
                      fence_free: bool = False) -> list[AEGNode]:
        return self._within(self._table.stores,
                            self._saeg._block_stores, bound, fence_free)
