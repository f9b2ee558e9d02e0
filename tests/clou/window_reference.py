"""Reference window and pair queries over an S-AEG, kept for
differential tests.

- :func:`anchor_window` is the §6.2.1 reverse block walk run afresh for
  one anchor, as ``SAEG.window`` ran it before windows were memoized per
  (block, bound);
- :func:`min_distance` and :func:`fence_free_between` are the per-pair
  algorithms the FWD engine used before it asked those windows and the
  fence-free reachability bitsets: a DP over the whole block DAG per
  distance and a DFS per fence-free query.

``tests/clou/test_window_memo.py`` checks the S-AEG against them.
"""

from __future__ import annotations

import heapq


class AnchorWindow:
    """The window of one anchor from one fresh reverse walk: per block,
    the minimal exit distance and the minimal fence-free exit distance
    to the anchor."""

    def __init__(self, aeg, anchor, bound: int, fence: int,
                 exits: dict[str, int], clear: dict[str, int]):
        self.aeg, self.anchor, self.bound = aeg, anchor, bound
        self.fence, self.exits, self.clear = fence, exits, clear

    def _suffix(self, node) -> int:
        return len(self.aeg.by_block[node.block]) - 1 - node.index

    def distance(self, node) -> int | None:
        if node.block == self.anchor.block:
            distance = self.anchor.index - node.index - 1
        else:
            exit_distance = self.exits.get(node.block)
            if exit_distance is None:
                return None
            distance = exit_distance + self._suffix(node)
        return distance if 0 <= distance <= self.bound else None

    def fence_free(self, node) -> bool:
        if node.block == self.anchor.block:
            return self.fence <= node.index and \
                self.distance(node) is not None
        exit_distance = self.clear.get(node.block)
        return exit_distance is not None and \
            self.aeg._last_fence[node.block] <= node.index and \
            exit_distance + self._suffix(node) <= self.bound


def anchor_window(aeg, anchor, bound: int) -> AnchorWindow:
    """Walk predecessor blocks from ``anchor``'s block in decreasing
    topological position, seeding the walk with the anchor's prefix."""
    label = anchor.block
    fence = max((node.index for node in aeg.by_block[label][:anchor.index]
                 if node.is_fence), default=-1)
    exits: dict[str, int] = {}
    clear: dict[str, int] = {}
    heap: list[tuple[int, str]] = []
    through = anchor.index
    clear_through = through if fence < 0 else None
    while True:
        if through <= bound:
            for pred in aeg._predecessors[label]:
                known = exits.get(pred)
                if known is None:
                    exits[pred] = through
                    heapq.heappush(heap, (-aeg._block_position[pred], pred))
                elif through < known:
                    exits[pred] = through
                if clear_through is not None and \
                        clear_through <= bound and \
                        clear_through < clear.get(pred, bound + 1):
                    clear[pred] = clear_through
        if not heap:
            break
        label = heapq.heappop(heap)[1]
        size = len(aeg.by_block[label])
        through = exits[label] + size
        clear_through = None
        if aeg._last_fence[label] < 0 and label in clear:
            clear_through = clear[label] + size
    return AnchorWindow(aeg, anchor, bound, fence, exits, clear)


def min_distance(aeg, a, b) -> int | None:
    """Minimum number of fetched instructions strictly between a and b
    along any path (None if b never follows a)."""
    if not aeg.before(a, b):
        return None
    if a.block == b.block:
        return b.index - a.index - 1
    suffix = len(aeg.by_block[a.block]) - a.index - 1
    best = min_block_distance(aeg, a.block, b.block)
    if best is None:
        return None
    return suffix + best + b.index


def min_block_distance(aeg, src: str, dst: str) -> int | None:
    """Min instructions in strictly-intermediate blocks on src->dst paths."""
    best: dict[str, int | None] = {}
    for label in reversed(aeg._block_order):
        if label == dst:
            best[label] = 0
            continue
        candidates = [
            best[succ] for succ in aeg._successors.get(label, ())
            if best.get(succ) is not None
        ]
        if not candidates:
            best[label] = None
            continue
        # A block's instructions are paid when passing through it, not
        # for the endpoints.
        if label == src:
            best[label] = min(candidates)
        else:
            best[label] = len(aeg.by_block[label]) + min(candidates)
    return best.get(src)


def fence_free_between(aeg, a, b) -> bool:
    """Is there a path from a to b with no lfence strictly between?"""
    if not aeg.before(a, b):
        return False
    if a.block == b.block:
        return not any(
            node.is_fence
            for node in aeg.by_block[a.block][a.index + 1:b.index]
        )
    if aeg._last_fence[a.block] > a.index:
        return False
    if any(node.is_fence for node in aeg.by_block[b.block][:b.index]):
        return False
    # DAG search through fence-free intermediate blocks.
    fenced = aeg._last_fence
    target = b.block
    seen = set()
    stack = [a.block]
    while stack:
        label = stack.pop()
        for succ in aeg._successors.get(label, ()):
            if succ == target:
                return True
            if succ in seen or fenced[succ] >= 0:
                continue
            seen.add(succ)
            stack.append(succ)
    return False
