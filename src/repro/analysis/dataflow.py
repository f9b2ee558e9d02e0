"""Generic worklist dataflow solver over ``repro.ir`` CFGs.

A :class:`DataflowProblem` supplies a lattice, an entry state and a
per-instruction transfer function; :func:`solve` runs the classical
forward worklist algorithm to the least fixpoint and returns per-block
entry states plus a per-block replay of the states between
instructions.  Its two clients are the reaching stores behind the
interval analysis and the per-function secret taint of the lint.

States are treated as immutable values: transfer functions must return a
fresh state (or the input unchanged) rather than mutating in place, and
lattice ``join`` must likewise be pure.  Equality of states is structural
(``==``), which is what terminates the fixpoint loop — lattices must have
finite height or clients must widen in their transfer functions.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator

from repro.ir import Function, Instruction

from .cfg import BlockCFG

State = Any


class Lattice:
    """A join-semilattice over analysis states."""

    def bottom(self) -> State:
        raise NotImplementedError

    def join(self, a: State, b: State) -> State:
        raise NotImplementedError


class BitsetLattice(Lattice):
    """Powerset lattice over Python-int bitsets: join is big-int OR.

    Orders of magnitude faster than frozensets for dense gen/kill
    problems — the state for thousands of facts is one machine object.
    """

    def bottom(self) -> int:
        return 0

    def join(self, a: int, b: int) -> int:
        return a | b


class MapLattice(Lattice):
    """Pointwise lift of a value lattice to dict states.

    Missing keys mean the value-lattice bottom; joins drop entries that
    join to bottom so states stay canonical and comparable with ``==``.
    """

    def __init__(self, value: Lattice):
        self.value = value

    def bottom(self) -> dict:
        return {}

    def join(self, a: dict, b: dict) -> dict:
        if not a:
            return b
        if not b:
            return a
        out = dict(a)
        vbottom = self.value.bottom()
        for key, bval in b.items():
            aval = out.get(key, vbottom)
            joined = self.value.join(aval, bval)
            if joined == vbottom:
                out.pop(key, None)
            else:
                out[key] = joined
        return {k: v for k, v in out.items() if v != vbottom}


class LevelLattice(Lattice):
    """Small integer levels 0..top ordered numerically (join = max)."""

    def __init__(self, top: int):
        self.top = top

    def bottom(self) -> int:
        return 0

    def join(self, a: int, b: int) -> int:
        return min(max(a, b), self.top)


class DataflowProblem:
    """Client interface for a forward problem: lattice + boundary +
    transfer."""

    def lattice(self) -> Lattice:
        raise NotImplementedError

    def boundary(self, function: Function) -> State:
        """State at the entry."""
        return self.lattice().bottom()

    def transfer(self, ins: Instruction, state: State) -> State:
        """State after ``ins`` given the state before it."""
        raise NotImplementedError


class DataflowSolution:
    """Fixpoint result: per-block entry states plus instruction replay."""

    def __init__(self, problem: DataflowProblem, cfg: BlockCFG,
                 block_in: dict[str, State]):
        self.problem = problem
        self.cfg = cfg
        self.block_in = block_in

    def instruction_states(self, label: str) -> Iterator[tuple[Instruction, State]]:
        """Yield (instruction, state before it) pairs for one block."""
        state = self.block_in[label]
        for ins in self.cfg.block_of[label].instructions:
            yield ins, state
            state = self.problem.transfer(ins, state)


def solve(function: Function, problem: DataflowProblem,
          max_iterations: int = 10_000_000) -> DataflowSolution:
    """Run the forward worklist algorithm to the least fixpoint."""
    cfg = BlockCFG(function)
    lattice = problem.lattice()
    order = cfg.reverse_postorder()
    boundary = problem.boundary(function)
    state_in: dict[str, State] = {l: lattice.bottom() for l in cfg.labels}
    state_out: dict[str, State] = {l: lattice.bottom() for l in cfg.labels}
    state_in[cfg.entry] = boundary

    worklist: deque[str] = deque(order)
    queued = set(order)
    iterations = 0
    while worklist:
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError(
                f"dataflow fixpoint did not converge in {max_iterations} "
                f"iterations on {function.name!r} — widen the lattice")
        label = worklist.popleft()
        queued.discard(label)
        incoming = state_in[label]
        for pred in cfg.predecessors[label]:
            incoming = lattice.join(incoming, state_out[pred])
        if label == cfg.entry:
            incoming = lattice.join(incoming, boundary)
        state_in[label] = incoming
        new_out = incoming
        for ins in cfg.block_of[label].instructions:
            new_out = problem.transfer(ins, new_out)
        if new_out != state_out[label]:
            state_out[label] = new_out
            for succ in cfg.successors[label]:
                if succ not in queued:
                    queued.add(succ)
                    worklist.append(succ)
    return DataflowSolution(problem, cfg, state_in)
