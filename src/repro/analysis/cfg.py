"""Block-level CFG utilities for the dataflow framework.

The S-AEG keeps its own block orderings for its windows; the analysis
layer works at basic-block granularity too, which is what the
classical worklist algorithms (reaching definitions, liveness, intervals)
want.  ``BlockCFG`` precomputes successor/predecessor maps and orderings;
dominators use the standard iterative intersection over reverse postorder
(Cooper-Harvey-Kennedy without the tree compression — our functions are
small enough that the dense fixpoint is fine).
"""

from __future__ import annotations

from repro.ir import Function


class BlockCFG:
    """Successor/predecessor maps plus orderings for one function."""

    def __init__(self, function: Function):
        self.function = function
        self.entry = function.blocks[0].label
        self.labels = [block.label for block in function.blocks]
        self.block_of = {block.label: block for block in function.blocks}
        self.successors: dict[str, list[str]] = {
            block.label: block.successors() for block in function.blocks
        }
        self.predecessors: dict[str, list[str]] = {label: [] for label in self.labels}
        for label, succs in self.successors.items():
            for succ in succs:
                self.predecessors[succ].append(label)
        self._rpo: list[str] | None = None
        self._dominators: dict[str, frozenset[str]] | None = None

    # -- orderings ---------------------------------------------------------

    def postorder(self) -> list[str]:
        """DFS postorder from the entry; unreachable blocks are omitted."""
        seen: set[str] = set()
        order: list[str] = []
        # Iterative DFS (A-CFGs can be thousands of blocks deep).
        stack: list[tuple[str, int]] = [(self.entry, 0)]
        seen.add(self.entry)
        while stack:
            label, child = stack[-1]
            succs = self.successors[label]
            if child < len(succs):
                stack[-1] = (label, child + 1)
                succ = succs[child]
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, 0))
            else:
                order.append(label)
                stack.pop()
        return order

    def reverse_postorder(self) -> list[str]:
        if self._rpo is None:
            self._rpo = list(reversed(self.postorder()))
        return self._rpo

    @property
    def reachable(self) -> set[str]:
        return set(self.reverse_postorder())

    def exit_labels(self) -> list[str]:
        """Blocks with no successor (returns) — boundary for backward flows."""
        return [label for label in self.labels if not self.successors[label]]

    # -- dominance ---------------------------------------------------------

    def dominators(self) -> dict[str, frozenset[str]]:
        """label -> set of blocks that dominate it (reflexive).

        A block D dominates B when every CFG path from the entry to B
        passes through D — regardless of which way branches resolve, so
        the fact survives branch misprediction (what the interval
        analysis relies on for initialization arguments).
        """
        if self._dominators is not None:
            return self._dominators
        rpo = self.reverse_postorder()
        universe = frozenset(rpo)
        dom: dict[str, frozenset[str]] = {label: universe for label in rpo}
        dom[self.entry] = frozenset({self.entry})
        changed = True
        while changed:
            changed = False
            for label in rpo:
                if label == self.entry:
                    continue
                preds = [p for p in self.predecessors[label] if p in universe]
                if preds:
                    new = frozenset.intersection(*(dom[p] for p in preds))
                else:
                    new = frozenset()
                new = new | {label}
                if new != dom[label]:
                    dom[label] = new
                    changed = True
        self._dominators = dom
        return dom

    def dominates(self, a: str, b: str) -> bool:
        """Does block ``a`` dominate block ``b``?  (Reflexive.)"""
        return a in self.dominators().get(b, frozenset())

    def instruction_dominates(self, a: tuple[str, int], b: tuple[str, int]) -> bool:
        """Does instruction a=(block, index) dominate b=(block, index)?"""
        (block_a, index_a), (block_b, index_b) = a, b
        if block_a == block_b:
            return index_a < index_b
        return block_a != block_b and self.dominates(block_a, block_b)

    def immediate_dominators(self) -> dict[str, str | None]:
        """label -> its immediate dominator (None for the entry)."""
        dom = self.dominators()
        idom: dict[str, str | None] = {}
        for label in self.reverse_postorder():
            strict = dom[label] - {label}
            if not strict:
                idom[label] = None
                continue
            # The idom is the strict dominator dominated by all others.
            idom[label] = max(strict, key=lambda d: len(dom[d]))
        return idom
