"""Block-level CFG for the dataflow framework.

The S-AEG keeps its own block orderings for its windows; the analysis
layer works at basic-block granularity too, which is what the worklist
solver and the interval pass want.  ``BlockCFG`` precomputes
successor/predecessor maps and the reverse postorder.
"""

from __future__ import annotations

from repro.ir import Function


class BlockCFG:
    """Successor/predecessor maps plus orderings for one function."""

    def __init__(self, function: Function):
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
