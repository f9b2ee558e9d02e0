"""The Symbolic Abstract Event Graph (S-AEG, §5.2).

An S-AEG over-approximates every candidate execution of an A-CFG
function.  Nodes are the A-CFG's instructions; the symbolic edge classes
of the paper map onto:

- control flow (po/tfo): the block DAG, whose reachability bitsets
  answer the Fig. 7 realizability check (path-condition variables are
  still encoded by :meth:`SAEG.path_constraints`);
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

import heapq
from dataclasses import dataclass

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
    PointerType,
    Store,
    Temp,
    Value,
)

@dataclass(frozen=True)
class Dep:
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
        self.rf_window = rf_window
        self.max_deps_per_temp = max_deps_per_temp
        self._build_nodes()
        self._build_reachability()
        self.deps: dict[str, tuple[Dep, ...]] = {}
        self.taint: dict[str, bool] = {}
        self._def_node: dict[str, AEGNode] = {}
        self._build_dataflow()
        self.rf: list[tuple[AEGNode, AEGNode]] = []
        self._build_rf()
        self._extend_through_memory()

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
        for label in reversed(self._block_order):
            mask = self._block_bit[label]
            for succ in self._successors.get(label, ()):
                mask |= self._reach_mask[succ]
            self._reach_mask[label] = mask

    def window(self, anchor: AEGNode, bound: int) -> "WindowView":
        """The §6.2.1 sliding window of ``anchor``: every node from which
        the anchor is reachable within ``bound`` fetched instructions.

        A path leaves a block only through its last node, so a node's
        distance is its block's *exit* distance (instructions strictly
        between the block's last node and the anchor) plus the block's
        suffix after it.  One reverse walk over blocks, in decreasing
        topological position so each block is final when popped, records
        the minimal exit distance and the minimal exit distance along a
        fence-free path; :class:`WindowView` answers node queries from
        them arithmetically."""
        label = anchor.block
        fence = self._last_fence[label]
        if fence >= anchor.index:
            fence = max((node.index
                         for node in self.by_block[label][:anchor.index]
                         if node.is_fence), default=-1)
        exits: dict[str, int] = {}
        clear: dict[str, int] = {}
        blocks: list[str] = []
        position = self._block_position
        heap: list[tuple[int, str]] = []
        # Entering the anchor's block fetches its prefix before the anchor.
        through = anchor.index
        clear_through = through if fence < 0 else None
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
        blocks.reverse()
        return WindowView(self, anchor, bound, fence, blocks, exits, clear)

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

    def min_distance(self, a: AEGNode, b: AEGNode) -> int | None:
        """Minimum number of fetched instructions strictly between a and b
        along any path (None if b never follows a)."""
        if not self.before(a, b):
            return None
        if a.block == b.block:
            return b.index - a.index - 1
        suffix = len(self.by_block[a.block]) - a.index - 1
        best = self._min_block_distance(a.block, b.block)
        if best is None:
            return None
        return suffix + best + b.index

    def _min_block_distance(self, src: str, dst: str) -> int | None:
        """Min instructions in strictly-intermediate blocks on src->dst paths."""
        best: dict[str, int | None] = {}
        for label in reversed(self._block_order):
            if label == dst:
                best[label] = 0
                continue
            candidates = [
                best[succ] for succ in self._successors.get(label, ())
                if best.get(succ) is not None
            ]
            if not candidates:
                best[label] = None
                continue
            cost = 0 if label == src else len(self.by_block[label])
            # cost of this block's instructions is paid when passing
            # through it (not for the endpoints).
            if label == src:
                best[label] = min(candidates)
            else:
                best[label] = cost + min(candidates)
        return best.get(src)

    def fence_free_between(self, a: AEGNode, b: AEGNode) -> bool:
        """Is there a path from a to b with no lfence strictly between?"""
        if not self.before(a, b):
            return False
        if a.block == b.block:
            return not any(
                node.is_fence
                for node in self.by_block[a.block][a.index + 1:b.index]
            )
        if self._last_fence[a.block] > a.index:
            return False
        prefix_clear = not any(
            node.is_fence for node in self.by_block[b.block][:b.index]
        )
        if not prefix_clear:
            return False
        # DAG search through fence-free intermediate blocks.
        fenced = self._last_fence
        target = b.block
        seen = set()
        stack = [a.block]
        while stack:
            label = stack.pop()
            for succ in self._successors.get(label, ()):
                if succ == target:
                    return True
                if succ in seen or fenced[succ] >= 0:
                    continue
                seen.add(succ)
                stack.append(succ)
        return False

    # ------------------------------------------------------------------
    # Dataflow: deps and taint
    # ------------------------------------------------------------------

    @staticmethod
    def _is_pointer(value: Value) -> bool:
        return isinstance(value.type, PointerType) if hasattr(value, "type") else False

    def _build_dataflow(self) -> None:
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
                return True  # all top-level inputs are attacker-controlled
            return False

        for node in self.nodes:
            ins = node.instruction
            if ins.result is None:
                continue
            self._def_node[ins.result.name] = node
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
                taint[name] = True  # havoc result is untrusted
            elif isinstance(ins, Alloca):
                deps[name] = ()
                taint[name] = False

    # ------------------------------------------------------------------
    # rf over memory, and (data.rf)* extension
    # ------------------------------------------------------------------

    def _build_rf(self) -> None:
        """Store→load pairs under the §5.2 alias analysis, restricted to
        the sliding window (positions within ``rf_window``)."""
        stores = [n for n in self.nodes if n.is_store]
        loads = [n for n in self.nodes if n.is_load]
        stores.sort(key=lambda n: n.position)
        import bisect

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

    def _extend_through_memory(self, max_rounds: int = 4) -> None:
        """(data.rf)* — §5.3: a loaded value can be stored and re-loaded
        any number of times before its use as an address.  Each memory hop
        increments ``store_hops``."""
        for _ in range(max_rounds):
            changed = False
            for store, load in self.rf:
                value = store.instruction.value
                result = load.instruction.result
                if result is None:
                    continue
                if isinstance(value, Argument):
                    # Spilled parameters are attacker-controlled inputs.
                    if not self.taint.get(result.name, False):
                        self.taint[result.name] = True
                        changed = True
                    continue
                if not isinstance(value, Temp):
                    # Constant store: taints nothing, carries no deps.
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
                # Taint flows through memory as well.
                if self.taint.get(value.name, False) and not self.taint.get(
                        result.name, False):
                    self.taint[result.name] = True
                    changed = True
            if changed:
                # Re-propagate register dataflow over the new facts.
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

    def data_deps(self, node: AEGNode) -> tuple[Dep, ...]:
        ins = node.instruction
        if isinstance(ins, Store) and isinstance(ins.value, Temp):
            return self.deps.get(ins.value.name, ())
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

    def _cap(self, deps: tuple[Dep, ...]) -> tuple[Dep, ...]:
        if len(deps) > self.max_deps_per_temp:
            return deps[:self.max_deps_per_temp]
        return deps

    def path_constraints(self):
        """Encode architectural path conditions as boolean constraints:
        one variable per block (x_<label> — "block executes"), entry
        forced, branch blocks choose exactly one successor, and a block
        executes iff some predecessor edge into it is taken.

        Returns (encoder, cnf) — callers add query clauses and solve.
        This is the Fig. 7 machinery: edge labels like po[x1] correspond
        to the x_<label> variables here.
        """
        from repro.solver import TseitinEncoder, conj, disj, exactly_one, iff, var

        encoder = TseitinEncoder()
        entry = self.function.entry.label
        encoder.assert_expr(var(f"x_{entry}"))
        incoming: dict[str, list] = {}
        for block in self.function.blocks:
            successors = block.successors()
            executed = var(f"x_{block.label}")
            if len(successors) == 2:
                then_edge = var(f"e_{block.label}->{successors[0]}#0")
                else_edge = var(f"e_{block.label}->{successors[1]}#1")
                encoder.assert_expr(iff(executed, disj(then_edge, else_edge)))
                encoder.assert_expr(
                    executed >> ~conj(then_edge, else_edge)
                )
                incoming.setdefault(successors[0], []).append(then_edge)
                incoming.setdefault(successors[1], []).append(else_edge)
            elif len(successors) == 1:
                edge = var(f"e_{block.label}->{successors[0]}#0")
                encoder.assert_expr(iff(executed, edge))
                incoming.setdefault(successors[0], []).append(edge)
        for block in self.function.blocks:
            if block.label == entry:
                continue
            executed = var(f"x_{block.label}")
            edges = incoming.get(block.label, [])
            if edges:
                encoder.assert_expr(iff(executed, disj(*edges)))
            else:
                encoder.assert_expr(~executed)
        return encoder

    def realizable(self, nodes: list[AEGNode]) -> bool:
        """Can all given nodes execute in ONE architectural path (Fig. 7)?

        Every model of :meth:`path_constraints` is one path rooted at the
        entry (the entry is forced, an executed block takes exactly one
        successor, and a non-entry block executes iff an incoming edge is
        taken), and the A-CFG is a DAG.  So the nodes' blocks, sorted by
        topological position, must form a reachability chain that starts
        at the entry: O(k) bitset tests, exact, never undecided."""
        position = self._block_position
        current = self._reach_mask[self.function.entry.label]
        for label in sorted({node.block for node in nodes},
                            key=position.__getitem__):
            if not current & self._block_bit[label]:
                return False
            current = self._reach_mask[label]
        return True

    def realizable_fresh(self, nodes: list[AEGNode]) -> bool:
        """SAT reference for :meth:`realizable`: encode the path
        constraints and solve them with a throwaway solver.  Kept for
        differential testing (the incremental-vs-fresh fuzz oracle and
        the realizability tests); engines use the chain check."""
        from repro.solver import SatSolver, var

        encoder = self.path_constraints()
        for node in nodes:
            encoder.assert_expr(var(f"x_{node.block}"))
        solver = SatSolver.from_cnf(encoder.cnf)
        return solver.solve() is not None


class WindowView:
    """The §6.2.1 sliding window of one anchor (see :meth:`SAEG.window`).

    ``distance(n)`` is the minimal number of fetched instructions
    strictly between n and the anchor (None if the anchor is not
    reachable within the bound); ``fence_free(n)`` is True when some
    path of at most ``bound`` instructions from n to the anchor carries
    no intervening lfence.  Both are arithmetic on the block's exit
    distances, its size, the node's index and the block's last fence.
    """

    __slots__ = ("anchor", "bound", "_saeg", "_fence", "_blocks",
                 "_exits", "_clear")

    def __init__(self, saeg: SAEG, anchor: AEGNode, bound: int, fence: int,
                 blocks: list[str], exits: dict[str, int],
                 clear: dict[str, int]):
        self.anchor = anchor
        self.bound = bound
        self._saeg = saeg
        self._fence = fence      # last lfence before the anchor, or -1
        self._blocks = blocks    # blocks with an exit, in position order
        self._exits = exits      # block -> minimal exit distance
        self._clear = clear      # block -> minimal fence-free exit distance

    def _suffix(self, node: AEGNode) -> int:
        """Instructions after ``node`` in its block."""
        return len(self._saeg.by_block[node.block]) - 1 - node.index

    def distance(self, node: AEGNode) -> int | None:
        if node.block == self.anchor.block:
            distance = self.anchor.index - node.index - 1
        else:
            exit_distance = self._exits.get(node.block)
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
        exit_distance = self._clear.get(node.block)
        return exit_distance is not None and \
            self._saeg._last_fence[node.block] <= node.index and \
            exit_distance + self._suffix(node) <= self.bound

    def _within(self, kinds: dict[str, list[AEGNode]],
                bound: int) -> list[AEGNode]:
        """The nodes of ``kinds`` within ``bound``, in position order."""
        bound = min(bound, self.bound)
        by_block = self._saeg.by_block
        found = []
        for label in self._blocks:
            # Index j is in the window iff exit + (size - 1 - j) <= bound.
            first = self._exits[label] + len(by_block[label]) - 1 - bound
            found.extend(node for node in kinds[label] if node.index >= first)
        anchor = self.anchor
        first = anchor.index - 1 - bound
        found.extend(node for node in kinds[anchor.block]
                     if first <= node.index < anchor.index)
        return found

    def branches_within(self, bound: int) -> list[AEGNode]:
        return self._within(self._saeg._block_branches, bound)

    def loads_within(self, bound: int) -> list[AEGNode]:
        return self._within(self._saeg._block_loads, bound)

    def stores_within(self, bound: int) -> list[AEGNode]:
        return self._within(self._saeg._block_stores, bound)
