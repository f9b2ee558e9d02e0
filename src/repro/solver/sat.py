"""A CDCL SAT solver (conflict-driven clause learning).

This stands in for Z3 in the reproduction (see DESIGN.md).  Features:

- two-watched-literal unit propagation with a binary-clause fast path
  (binary clauses live in a dedicated implication list, so propagating
  them never touches or re-shuffles the long-clause watch lists),
- first-UIP conflict analysis with clause learning,
- VSIDS-style activity-based decision heuristic with decay,
- phase saving (decisions re-use each variable's last polarity, so a
  repeated query re-walks its previous model instead of re-searching),
- Luby-sequence restarts,
- incremental solving under assumptions (:meth:`SatSolver.solve`):
  learned clauses, the saved phases, and the fully-propagated root
  trail all persist across calls, which is what makes thousands of
  assumption queries against one encoding cheap,
- LBD-based learned-clause DB reduction between queries
  (:meth:`_reduce_db`), so the clause DB stays bounded over a long
  query stream without ever dropping reason clauses or root units,
- model enumeration via blocking clauses (:func:`enumerate_models`).

The implementation favours clarity over raw speed; it comfortably
handles the tens of thousands of clauses the subrosa encodings produce.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import SolverError
from repro.solver.cnf import CNF

UNASSIGNED = 0
TRUE = 1
FALSE = -1


def _luby(i: int) -> int:
    """The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...

    (i is 1-based.)  If ``i == 2^k - 1`` the value is ``2^(k-1)``;
    otherwise recurse into the residual prefix.
    """
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class SatSolver:
    """CDCL over integer literals (positive = true, negative = false).

    ``statistics`` counts work across the solver's whole lifetime:
    ``queries`` (:meth:`solve` calls), ``decisions``, ``conflicts``,
    ``propagations``, ``restarts``, ``learned`` and ``deleted`` clauses.

    After an UNSAT answer, :attr:`assumption_failed` distinguishes a
    conflict that depends on the passed assumptions (the formula itself
    may still be satisfiable) from root-level unsatisfiability.
    """

    def __init__(self, num_vars: int = 0, reduce_base: int = 2000):
        self.num_vars = num_vars
        self.clauses: list[list[int]] = []
        self._watches: dict[int, list[int]] = {}
        self._bin_watches: dict[int, list[tuple[int, int]]] = {}
        self._assign: list[int] = [UNASSIGNED] * (num_vars + 1)
        self._level: list[int] = [0] * (num_vars + 1)
        self._reason: list[int | None] = [None] * (num_vars + 1)
        self._phase: list[bool] = [False] * (num_vars + 1)
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._activity: list[float] = [0.0] * (num_vars + 1)
        self._activity_inc = 1.0
        # Indexed max-heap over unassigned variables (VSIDS order);
        # assigned variables are deleted lazily at pop time.
        self._heap: list[int] = list(range(1, num_vars + 1))
        self._heap_pos: list[int] = [-1] + list(range(num_vars))
        self._propagate_head = 0
        self._root_units: list[int] = []
        self._lbd: dict[int, int] = {}   # learned clause index -> LBD
        self._dirty = True               # clauses added since last solve
        self._reduce_limit = reduce_base
        self._simplified_root = 0        # root-trail size at last purge
        self._ok = True                  # no root-level conflict derived
        self.assumption_failed = False
        self.statistics = {"decisions": 0, "conflicts": 0, "propagations": 0,
                           "restarts": 0, "learned": 0, "deleted": 0,
                           "simplified": 0, "queries": 0}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_cnf(cls, cnf: CNF) -> "SatSolver":
        solver = cls(cnf.num_vars)
        for clause in cnf.clauses:
            solver.add_clause(clause)
        return solver

    def _ensure_var(self, variable: int) -> None:
        while self.num_vars < variable:
            self.num_vars += 1
            self._assign.append(UNASSIGNED)
            self._level.append(0)
            self._reason.append(None)
            self._phase.append(False)
            self._activity.append(0.0)
            self._heap_pos.append(-1)
            self._heap_push(self.num_vars)

    # ------------------------------------------------------------------
    # Decision-order heap (max by activity, ties to the lower variable)
    # ------------------------------------------------------------------

    def _heap_before(self, a: int, b: int) -> bool:
        if self._activity[a] != self._activity[b]:
            return self._activity[a] > self._activity[b]
        return a < b

    def _heap_push(self, variable: int) -> None:
        if self._heap_pos[variable] != -1:
            return
        self._heap.append(variable)
        self._heap_pos[variable] = len(self._heap) - 1
        self._heap_up(len(self._heap) - 1)

    def _heap_pop(self) -> int:
        heap = self._heap
        top = heap[0]
        self._heap_pos[top] = -1
        last = heap.pop()
        if heap:
            heap[0] = last
            self._heap_pos[last] = 0
            self._heap_down(0)
        return top

    def _heap_up(self, index: int) -> None:
        heap, pos = self._heap, self._heap_pos
        variable = heap[index]
        while index > 0:
            parent = (index - 1) >> 1
            if not self._heap_before(variable, heap[parent]):
                break
            heap[index] = heap[parent]
            pos[heap[index]] = index
            index = parent
        heap[index] = variable
        pos[variable] = index

    def _heap_down(self, index: int) -> None:
        heap, pos = self._heap, self._heap_pos
        variable = heap[index]
        size = len(heap)
        while True:
            child = 2 * index + 1
            if child >= size:
                break
            if child + 1 < size and \
                    self._heap_before(heap[child + 1], heap[child]):
                child += 1
            if not self._heap_before(heap[child], variable):
                break
            heap[index] = heap[child]
            pos[heap[index]] = index
            index = child
        heap[index] = variable
        pos[variable] = index

    def add_clause(self, literals: Iterable[int]) -> None:
        clause = sorted(set(literals), key=abs)
        if not clause:
            raise SolverError("cannot add the empty clause")
        if any(-lit in clause for lit in clause):
            return  # tautology
        for literal in clause:
            self._ensure_var(abs(literal))
        self._dirty = True
        if len(clause) == 1:
            # Unit clauses bypass the watch schemes: re-applied at the
            # root of every solve() call.
            self._root_units.append(clause[0])
            return
        index = len(self.clauses)
        self.clauses.append(clause)
        self._watch(index, clause)

    def _watch(self, index: int, clause: list[int]) -> None:
        if len(clause) == 2:
            first, second = clause
            self._bin_watches.setdefault(first, []).append((second, index))
            self._bin_watches.setdefault(second, []).append((first, index))
            return
        for literal in clause[:2]:
            self._watches.setdefault(literal, []).append(index)

    # ------------------------------------------------------------------
    # Assignment machinery
    # ------------------------------------------------------------------

    def _value(self, literal: int) -> int:
        value = self._assign[abs(literal)]
        return value if literal > 0 else -value

    def _enqueue(self, literal: int, reason: int | None) -> None:
        variable = abs(literal)
        self._assign[variable] = TRUE if literal > 0 else FALSE
        self._level[variable] = len(self._trail_lim)
        self._reason[variable] = reason
        self._trail.append(literal)

    def _propagate(self) -> int | None:
        """Unit propagation; returns a conflicting clause index or None."""
        while self._propagate_head < len(self._trail):
            literal = self._trail[self._propagate_head]
            self._propagate_head += 1
            self.statistics["propagations"] += 1
            falsified = -literal
            # Binary fast path: each entry directly names the implied
            # literal, so no watch shuffling is ever needed.
            for other, clause_index in self._bin_watches.get(falsified, ()):
                value = self._value(other)
                if value == FALSE:
                    return clause_index
                if value == UNASSIGNED:
                    self._enqueue(other, clause_index)
            watch_list = self._watches.get(falsified, [])
            kept: list[int] = []
            i = 0
            while i < len(watch_list):
                clause_index = watch_list[i]
                i += 1
                clause = self.clauses[clause_index]
                # Ensure falsified literal is in slot 1.
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == TRUE:
                    kept.append(clause_index)
                    continue
                # Find a replacement watch.
                replaced = False
                for j in range(2, len(clause)):
                    if self._value(clause[j]) != FALSE:
                        clause[1], clause[j] = clause[j], clause[1]
                        self._watches.setdefault(clause[1], []).append(clause_index)
                        replaced = True
                        break
                if replaced:
                    continue
                kept.append(clause_index)
                if self._value(first) == FALSE:
                    # Conflict: restore remaining watches and report.
                    kept.extend(watch_list[i:])
                    self._watches[falsified] = kept
                    return clause_index
                self._enqueue(first, clause_index)
            self._watches[falsified] = kept
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _bump(self, variable: int) -> None:
        self._activity[variable] += self._activity_inc
        if self._heap_pos[variable] != -1:
            self._heap_up(self._heap_pos[variable])
        if self._activity[variable] > 1e100:
            # Uniform rescale preserves the heap order.
            self._activity = [a * 1e-100 for a in self._activity]
            self._activity_inc *= 1e-100

    def _analyze(self, conflict_index: int) -> tuple[list[int], int]:
        learned: list[int] = []
        seen = [False] * (self.num_vars + 1)
        counter = 0
        literal = None
        clause = self.clauses[conflict_index]
        trail_index = len(self._trail) - 1
        current_level = len(self._trail_lim)

        while True:
            for lit in clause:
                if literal is not None and lit == literal:
                    continue
                variable = abs(lit)
                if seen[variable] or self._level[variable] == 0:
                    continue
                seen[variable] = True
                self._bump(variable)
                if self._level[variable] == current_level:
                    counter += 1
                else:
                    learned.append(lit)
            # Walk the trail backwards to the next marked literal.
            while not seen[abs(self._trail[trail_index])]:
                trail_index -= 1
            literal = self._trail[trail_index]
            variable = abs(literal)
            seen[variable] = False
            counter -= 1
            trail_index -= 1
            if counter == 0:
                learned.insert(0, -literal)
                break
            reason = self._reason[variable]
            clause = self.clauses[reason]

        if len(learned) == 1:
            return learned, 0
        backtrack_level = max(self._level[abs(lit)] for lit in learned[1:])
        return learned, backtrack_level

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        for literal in self._trail[limit:]:
            variable = abs(literal)
            self._phase[variable] = literal > 0  # phase saving
            self._assign[variable] = UNASSIGNED
            self._reason[variable] = None
            self._heap_push(variable)
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._propagate_head = min(self._propagate_head, len(self._trail))

    def _decide(self) -> int | None:
        while self._heap:
            variable = self._heap_pop()
            if self._assign[variable] == UNASSIGNED:
                # Saved phase (initially negative: small models first).
                return variable if self._phase[variable] else -variable
        return None

    # ------------------------------------------------------------------
    # Learned-clause DB reduction
    # ------------------------------------------------------------------

    def _reduce_db(self) -> None:
        """Drop the worse (higher-LBD) half of the reducible learned
        clauses.  Called between queries, at decision level 0 with
        propagation complete, so re-selecting watches is safe.  Never
        dropped: reason clauses of current (root) assignments, binary
        clauses (they live in the cheap implication lists), root units
        (kept separately), and glue clauses (LBD <= 2).
        """
        locked = {self._reason[abs(lit)] for lit in self._trail}
        locked.discard(None)
        by_quality = sorted(self._lbd.items(), key=lambda kv: (kv[1], kv[0]))
        reducible = [index for index, lbd in by_quality
                     if lbd > 2 and index not in locked]
        drop = set(reducible[len(reducible) // 2:])
        self._reduce_limit += 500
        if not drop:
            return
        remap: dict[int, int] = {}
        kept: list[list[int]] = []
        for index, clause in enumerate(self.clauses):
            if index in drop:
                continue
            remap[index] = len(kept)
            kept.append(clause)
        self.clauses = kept
        self.statistics["deleted"] += len(drop)
        self._lbd = {remap[index]: lbd for index, lbd in self._lbd.items()
                     if index not in drop}
        self._reason = [remap[r] if r is not None else None
                        for r in self._reason]
        self._watches = {}
        self._bin_watches = {}
        for index, clause in enumerate(self.clauses):
            self._rewatch(index, clause)

    def _simplify_root(self) -> None:
        """Purge clauses satisfied at the root level.  Run between
        queries whenever the root trail has grown: a new root unit
        (a learned unit, or a retired enumeration activation literal)
        permanently satisfies every clause containing it, and those
        clauses would otherwise sit in the watch lists being scanned
        forever.  Level-0 reasons are never dereferenced by conflict
        analysis, so they are cleared rather than kept locked.
        """
        for literal in self._trail:
            self._reason[abs(literal)] = None
        remap: dict[int, int] = {}
        kept: list[list[int]] = []
        for index, clause in enumerate(self.clauses):
            if any(self._value(lit) == TRUE for lit in clause):
                continue
            remap[index] = len(kept)
            kept.append(clause)
        if len(kept) == len(self.clauses):
            return
        self.statistics["simplified"] += len(self.clauses) - len(kept)
        self.clauses = kept
        self._lbd = {remap[index]: lbd for index, lbd in self._lbd.items()
                     if index in remap}
        self._watches = {}
        self._bin_watches = {}
        for index, clause in enumerate(self.clauses):
            self._rewatch(index, clause)

    def _rewatch(self, index: int, clause: list[int]) -> None:
        """Re-register a clause's watches, moving (up to) two
        non-falsified literals into the watch slots so the two-watch
        invariant holds under the current root assignment."""
        if len(clause) == 2:
            first, second = clause
            self._bin_watches.setdefault(first, []).append((second, index))
            self._bin_watches.setdefault(second, []).append((first, index))
            return
        slot = 0
        for j, lit in enumerate(clause):
            if self._value(lit) != FALSE:
                clause[slot], clause[j] = clause[j], clause[slot]
                slot += 1
                if slot == 2:
                    break
        if slot == 1 and self._value(clause[0]) == UNASSIGNED:
            # Root propagation is complete before reduction, so a
            # pending unit here is unreachable in practice — enqueue
            # defensively rather than lose the implication.
            self._enqueue(clause[0], index)
        for literal in clause[:2]:
            self._watches.setdefault(literal, []).append(index)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def solve(self, assumptions: Iterable[int] = ()
              ) -> dict[int, bool] | None:
        """Return a model as {variable: bool}, or None if UNSAT.

        Incremental: between calls the root-level trail, learned
        clauses, and saved phases are kept, so a query stream over one
        formula only re-propagates when clauses were actually added.
        """
        self.statistics["queries"] += 1
        self.assumption_failed = False
        if not self._ok:
            # A root-level conflict was derived by an earlier query; the
            # formula is permanently UNSAT and the internal state (trail,
            # propagation head) no longer rediscovers the conflict.
            return None
        self._backtrack(0)
        if self._dirty:
            # Clauses were added since the last call; re-check the whole
            # root-level trail against them.
            self._propagate_head = 0
            self._dirty = False
        for literal in self._root_units:
            value = self._value(literal)
            if value == FALSE:
                self._ok = False
                return None
            if value == UNASSIGNED:
                self._enqueue(literal, None)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return None
        if len(self._trail) > self._simplified_root:
            self._simplify_root()
            self._simplified_root = len(self._trail)
        if len(self._lbd) > self._reduce_limit:
            self._reduce_db()

        # Assumption literals become level-1+ decisions that we never undo
        # past; a conflict at assumption level means UNSAT under the
        # assumptions (assumption_failed), not necessarily root UNSAT.
        assumption_list = list(assumptions)
        for literal in assumption_list:
            self._ensure_var(abs(literal))

        restart_count = 0
        conflicts_until_restart = 32 * _luby(restart_count + 1)
        conflicts_since_restart = 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.statistics["conflicts"] += 1
                conflicts_since_restart += 1
                if not self._trail_lim:
                    self._ok = False
                    return None
                if len(self._trail_lim) <= len(assumption_list):
                    self.assumption_failed = bool(assumption_list)
                    return None  # conflict depends only on assumptions
                learned, level = self._analyze(conflict)
                self.statistics["learned"] += 1
                if len(learned) == 1:
                    self._root_units.append(learned[0])
                    self._backtrack(len(assumption_list))
                    value = self._value(learned[0])
                    if value == FALSE:
                        self.assumption_failed = \
                            self._level[abs(learned[0])] > 0
                        if not self.assumption_failed:
                            self._ok = False
                        return None
                    if value == UNASSIGNED:
                        self._enqueue(learned[0], None)
                    continue
                lbd = len({self._level[abs(lit)] for lit in learned})
                level = max(level, len(assumption_list))
                if level >= len(self._trail_lim):
                    level = len(self._trail_lim) - 1
                self._backtrack(level)
                index = len(self.clauses)
                self.clauses.append(learned)
                self._watch(index, learned)
                if len(learned) > 2:
                    self._lbd[index] = lbd
                self._enqueue(learned[0], index)
                self._activity_inc *= 1.05
                if conflicts_since_restart >= conflicts_until_restart:
                    self.statistics["restarts"] += 1
                    restart_count += 1
                    conflicts_until_restart = 32 * _luby(restart_count + 1)
                    conflicts_since_restart = 0
                    self._backtrack(len(assumption_list))
                continue

            # Apply pending assumptions as decisions.
            if len(self._trail_lim) < len(assumption_list):
                literal = assumption_list[len(self._trail_lim)]
                value = self._value(literal)
                if value == FALSE:
                    self.assumption_failed = True
                    return None
                self._trail_lim.append(len(self._trail))
                if value == UNASSIGNED:
                    self._enqueue(literal, None)
                continue

            decision = self._decide()
            if decision is None:
                return {
                    variable: self._assign[variable] == TRUE
                    for variable in range(1, self.num_vars + 1)
                }
            self.statistics["decisions"] += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(decision, None)


def solve_cnf(cnf: CNF, assumptions: Iterable[int] = ()) -> dict[str, bool] | None:
    """Solve a named CNF; returns {name: bool} or None."""
    solver = SatSolver.from_cnf(cnf)
    model = solver.solve(assumptions)
    if model is None:
        return None
    return cnf.decode(model)


def enumerate_models(cnf: CNF, over: list[str] | None = None,
                     limit: int = 10_000) -> Iterator[dict[str, bool]]:
    """Yield distinct models, projected onto ``over`` (default: all named
    variables), blocking each projection as it is found."""
    solver = SatSolver.from_cnf(cnf)
    names = over if over is not None else sorted(cnf.index_of)
    indices = [cnf.index_of[name] for name in names]
    produced = 0
    while produced < limit:
        model = solver.solve()
        if model is None:
            return
        projection = {name: model[index] for name, index in zip(names, indices)}
        yield projection
        produced += 1
        blocking = [
            -index if model[index] else index
            for index in indices
        ]
        if not blocking:
            return
        solver.add_clause(blocking)
