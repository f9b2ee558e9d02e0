"""Test-only reference: the detection engines as they were before the
search skeleton was shared.

Each engine here carries its own copy of the loops the current
:mod:`repro.clou.engine` runs once in :class:`DetectionEngine`: FWD its
own per-transmitter and control loops, PSF its own store scan, and every
witness site its own ``ClouWitness(...)`` block.  The classes are not
registered.  ``tests/clou/test_engine_consolidation.py`` runs them next
to the registered engines and requires the same raw witness list, the
same counters and the same checkpoint snapshots.
"""

from __future__ import annotations

import time

from repro.clou.aeg import AEGNode, Dep, SAEG, WindowView
from repro.clou.alias import AliasResult
from repro.clou.engine import (
    CLOU_DEFAULT_CONFIG,
    ClouConfig,
    _Budget,
    _candidate_fault,
    _SearchState,
)
from repro.clou.report import ClouWitness, FunctionReport, NodeRef
from repro.lcm.taxonomy import TransmitterClass


class DetectionEngine:
    """Shared machinery for the detection engines."""

    name = "base"
    # Metadata for ``clou analyze --list-engines`` and the DESIGN.md
    # engine matrix; subclasses override all four.
    attack = ""          # attack class the engine hunts
    primitive = ""       # speculation primitive
    range_pruning = ""   # interval range-pruning capability
    repair_note = ""     # fence placement the repair stage uses

    def __init__(self, aeg: SAEG, config: ClouConfig = CLOU_DEFAULT_CONFIG):
        self.aeg = aeg
        self.config = config
        self._ranges = None     # lazily-built IntervalAnalysis
        self._ranges_built = False
        self._refs: dict[int, NodeRef] = {}

    def _ref(self, node: AEGNode | None) -> NodeRef | None:
        """The node's :class:`NodeRef`, rendered once per engine: the
        same few nodes appear in many witnesses."""
        if node is None:
            return None
        ref = self._refs.get(node.nid)
        if ref is None:
            ref = self._refs[node.nid] = NodeRef.of(node, self.aeg)
        return ref

    # -- per-engine hooks --------------------------------------------------

    def prunes_ranges(self) -> bool:
        """Does this engine apply interval range pruning?  (PHT only:
        under STL the bypassed store invalidates slot-range reasoning.)"""
        return False

    @property
    def ranges(self):
        """The engine's IntervalAnalysis, built on first use."""
        if not self._ranges_built:
            self._ranges_built = True
            if self.prunes_ranges():
                from repro.analysis.interval import IntervalAnalysis

                self._ranges = IntervalAnalysis(self.aeg.function)
        return self._ranges

    def speculation_sources(self, transmit: AEGNode, view: WindowView
                            ) -> list[tuple[AEGNode, AEGNode | None]]:
        """Candidate (primitive, window_start) pairs that could make
        ``transmit`` execute transiently (window_start is the first
        transient instruction; None means the primitive itself)."""
        raise NotImplementedError

    def universal_first_hop_ok(self, dep: Dep) -> bool:
        raise NotImplementedError

    # -- shared search -------------------------------------------------------

    def run(self, *, resume: dict | None = None,
            checkpoint=None) -> FunctionReport:
        """Run the search.  ``resume`` is a checkpoint payload from an
        earlier interrupted run of the same (function, engine, config);
        ``checkpoint`` is a callable receiving snapshot dicts after each
        fully-processed candidate.  The final report is identical
        whether or not the run was interrupted and resumed."""
        started = time.monotonic()
        budget = _Budget(self.config.timeout_seconds)
        report = FunctionReport(
            function=self.aeg.function.name,
            engine=self.name,
            aeg_size=self.aeg.size,
        )
        state = _SearchState(resume, checkpoint)
        state.seed(report, resume)
        try:
            self._search(report, budget, state)
        finally:
            report.elapsed = time.monotonic() - started
            report.timed_out = budget.expired
        return report

    def _search(self, report: FunctionReport, budget: _Budget,
                state: _SearchState) -> None:
        want = set(self.config.classes)
        bound = max(self.config.rob_size, self.config.window_size)
        nodes = self.aeg.memory_nodes()
        state.total = len(nodes)
        for pos, transmit in enumerate(nodes):
            if pos < state.cursor:
                continue  # already covered by the resumed checkpoint
            if budget.check() or \
                    len(report.witnesses) >= \
                    self.config.max_witnesses_per_function:
                report.skipped += len(nodes) - pos
                return
            address_deps = self.aeg.address_deps(transmit)
            has_control_work = "ct" in want or "uct" in want
            if not address_deps and not has_control_work:
                state.cursor = pos + 1
                _candidate_fault(pos, budget)
                continue
            if self.prunes_ranges() and "dt" not in want:
                # Without DT work an address dep matters only as the head
                # of a universal chain, which a provably-bounded access
                # cannot be — filter those deps before paying for the
                # window (and skip the transmitter entirely when
                # nothing is left).
                kept = tuple(
                    dep for dep in address_deps
                    if not self._access_provably_bounded(
                        self.aeg.node_of(dep.source)))
                report.pruned += len(address_deps) - len(kept)
                address_deps = kept
                if not address_deps and not has_control_work:
                    state.cursor = pos + 1
                    _candidate_fault(pos, budget)
                    continue
            report.candidates += 1
            view = self.aeg.window(transmit, bound)
            self._search_transmit(transmit, view, address_deps, want,
                                  report, budget)
            if budget.expired:
                # The candidate was cut short mid-search: counted as
                # examined, but the cursor stays put so a resume redoes
                # it in full (witness dedup keeps the output stable).
                continue
            state.cursor = pos + 1
            state.snapshot(report)
            _candidate_fault(pos, budget)

    def _search_transmit(self, transmit: AEGNode, view: WindowView,
                         address_deps: tuple[Dep, ...], want: set[str],
                         report: FunctionReport, budget: _Budget) -> None:
        primitives = self.speculation_sources(transmit, view)
        if not primitives:
            return
        for dep in address_deps:
            if budget.check():
                return
            if dep.store_hops > self.config.max_store_hops:
                continue
            access = self.aeg.node_of(dep.source)
            if access.nid == transmit.nid:
                continue
            if not view.contains(access):
                continue  # outside the sliding window
            self._classify_chain(transmit, access, dep, primitives,
                                 view, want, report)
        if "ct" in want or "uct" in want:
            self._search_control(transmit, view, primitives, want,
                                 report, budget)

    def _classify_chain(self, transmit: AEGNode, access: AEGNode, dep: Dep,
                        primitives: list[tuple[AEGNode, AEGNode | None]],
                        view: WindowView, want: set[str],
                        report: FunctionReport) -> None:
        # Fig. 7 σ-compatibility: the chain endpoints must co-execute on
        # one architectural path (the window already walks real CFG
        # edges, so this can only reject patterns the pairwise checks
        # over-approximated).
        if not self.aeg.realizable([access, transmit]):
            return
        for primitive, window_start in primitives:
            access_transient = self._is_transient(access, primitive,
                                                  window_start, view)
            transmit_transient = self._is_transient(transmit, primitive,
                                                    window_start, view)
            if not (access_transient or transmit_transient):
                continue
            reported_universal = False
            universal_wanted = "udt" in want
            if universal_wanted and self._access_provably_bounded(access):
                report.pruned += 1
                universal_wanted = False
            if universal_wanted:
                for index_dep in self.aeg.address_deps(access):
                    if not self.universal_first_hop_ok(index_dep):
                        continue
                    if dep.store_hops + index_dep.store_hops > \
                            self.config.max_store_hops:
                        continue
                    index = self.aeg.node_of(index_dep.source)
                    if index.nid == access.nid:
                        continue
                    if not self.aeg.before(index, access):
                        continue
                    if not view.contains(index):
                        continue
                    # Joint σ-compatibility of the full universal chain.
                    if not self.aeg.realizable([index, access, transmit]):
                        continue
                    if not self._index_attacker_controlled(index):
                        continue
                    if self.config.require_transient_access and \
                            not access_transient:
                        # Committed access: leakage scope is bounded, so
                        # the pattern downgrades to a DT (§6.2.1).
                        continue
                    report.witnesses.append(ClouWitness(
                        engine=self.name,
                        klass=TransmitterClass.UNIVERSAL_DATA,
                        transmit=self._ref(transmit),
                        primitive=self._ref(primitive),
                        access=self._ref(access),
                        index=self._ref(index),
                        window_start=self._ref(window_start),
                        transient_transmit=transmit_transient,
                        transient_access=access_transient,
                        store_hops=dep.store_hops + index_dep.store_hops,
                    ))
                    reported_universal = True
                    break
            if "dt" in want and not reported_universal:
                report.witnesses.append(ClouWitness(
                    engine=self.name,
                    klass=TransmitterClass.DATA,
                    transmit=self._ref(transmit),
                    primitive=self._ref(primitive),
                    access=self._ref(access),
                    window_start=self._ref(window_start),
                    transient_transmit=transmit_transient,
                    transient_access=access_transient,
                    store_hops=dep.store_hops,
                ))
            return  # one primitive witness per chain suffices

    def _search_control(self, transmit: AEGNode, view: WindowView,
                        primitives: list[tuple[AEGNode, AEGNode | None]],
                        want: set[str], report: FunctionReport,
                        budget: _Budget) -> None:
        """access -ctrl-> transmit patterns: the transmitter leaks the
        outcome of a branch on the access's loaded value, under the
        first primitive that makes the transmitter transient."""
        for primitive, window_start in primitives:
            if self._is_transient(transmit, primitive, window_start, view):
                break
        else:
            return
        for branch in self._branches_in(view):
            if budget.check():
                return
            cond_deps = self.aeg.branch_cond_deps(branch)
            if not cond_deps:
                continue
            # σ-compatibility of branch and transmitter (Fig. 7).
            if not self.aeg.realizable([branch, transmit]):
                continue
            for dep in cond_deps:
                if dep.store_hops > self.config.max_store_hops:
                    continue
                access = self.aeg.node_of(dep.source)
                access_transient = self._is_transient(
                    access, primitive, window_start, view)
                uct_wanted = "uct" in want
                if uct_wanted and self._access_provably_bounded(access):
                    report.pruned += 1
                    uct_wanted = False
                if uct_wanted:
                    reported = False
                    for index_dep in self.aeg.address_deps(access):
                        if not self.universal_first_hop_ok(index_dep):
                            continue
                        index = self.aeg.node_of(index_dep.source)
                        if index.nid == access.nid:
                            continue
                        if not self.aeg.before(index, access):
                            continue
                        if not self._index_attacker_controlled(index):
                            continue
                        if self.config.require_transient_access and \
                                not access_transient:
                            continue
                        report.witnesses.append(ClouWitness(
                            engine=self.name,
                            klass=TransmitterClass.UNIVERSAL_CONTROL,
                            transmit=self._ref(transmit),
                            primitive=self._ref(primitive),
                            access=self._ref(access),
                            index=self._ref(index),
                            window_start=self._ref(window_start),
                            transient_transmit=True,
                            transient_access=access_transient,
                            store_hops=dep.store_hops + index_dep.store_hops,
                        ))
                        reported = True
                        break
                    if reported:
                        break
                if "ct" in want:
                    report.witnesses.append(ClouWitness(
                        engine=self.name,
                        klass=TransmitterClass.CONTROL,
                        transmit=self._ref(transmit),
                        primitive=self._ref(primitive),
                        access=self._ref(access),
                        window_start=self._ref(window_start),
                        transient_transmit=True,
                        transient_access=access_transient,
                        store_hops=dep.store_hops,
                    ))
                    break

    # -- helpers ---------------------------------------------------------------

    def _branches_in(self, view: WindowView) -> list[AEGNode]:
        return view.branches_within(self.config.window_size)

    def _is_transient(self, node: AEGNode, primitive: AEGNode,
                      window_start: AEGNode | None, view: WindowView) -> bool:
        """Does the node lie inside the primitive's transient window?

        The view is anchored at the transmitter; the origin's distance to
        the anchor bounds the distance to any node between them.
        """
        origin = window_start or primitive
        if node.nid == origin.nid:
            return True
        if not self.aeg.before(origin, node):
            return False
        distance = view.distance(origin)
        return (distance is not None
                and distance <= self.config.rob_size
                and view.fence_free(origin))

    def _index_attacker_controlled(self, index: AEGNode) -> bool:
        result = index.instruction.result
        return result is not None and self.aeg.value_tainted(result)

    def _access_provably_bounded(self, access: AEGNode) -> bool:
        """Range pruning (engines opting in via :meth:`prunes_ranges`):
        an access that stays inside its object on every A-CFG path
        cannot head a universal chain."""
        if not self.prunes_ranges():
            return False
        return self.ranges.access_in_bounds(access.instruction)


class ClouPHT(DetectionEngine):
    """Spectre v1: control-flow speculation (§5.3)."""

    name = "pht"
    attack = "Spectre v1 (bounds check bypass)"
    primitive = "mispredicted conditional branch"
    range_pruning = "first hop (branch-independent intervals)"
    repair_note = "lfence in the transmit window (1/program in §6.1)"

    def prunes_ranges(self) -> bool:
        return self.config.enable_range_pruning

    def _search(self, report: FunctionReport, budget: _Budget,
                state: _SearchState) -> None:
        super()._search(report, budget, state)
        if self.config.detect_interference_variant:
            self._search_interference(report, budget, state)

    def _search_interference(self, report: FunctionReport, budget: _Budget,
                             state: _SearchState) -> None:
        """The §6.1 variant: a transient load T warms the cache line of
        a committed, tfo-prior load C that is still in flight — T's
        address modulates C's latency, a data transmitter through
        interference (cf. speculative interference attacks)."""
        loads = self.aeg.loads()
        for ipos, transient_load in enumerate(loads):
            if ipos < state.icursor:
                continue
            if budget.check():
                report.skipped += len(loads) - ipos
                return
            self._interference_for_load(transient_load, loads, report)
            state.icursor = ipos + 1
            state.snapshot(report)

    def _interference_for_load(self, transient_load: AEGNode,
                               committed_loads: list[AEGNode],
                               report: FunctionReport) -> None:
        view = self.aeg.window(transient_load, self.config.rob_size)
        primitives = self.speculation_sources(transient_load, view)
        if not primitives:
            return
        primitive, window_start = primitives[0]
        if not self._is_transient(transient_load, primitive,
                                  window_start, view):
            return
        deps = self.aeg.address_deps(transient_load)
        if not deps:
            return  # a constant-address prefetch transmits nothing
        for committed in committed_loads:
            if committed.nid == transient_load.nid:
                continue
            # The committed access is tfo-prior, still within the
            # same in-flight window, and not itself transient.
            if not self.aeg.before(committed, transient_load):
                continue
            if self._is_transient(committed, primitive, window_start, view):
                continue
            distance = view.distance(committed)
            if distance is None or distance > self.config.rob_size:
                continue
            if not self.aeg.alias.may_alias(
                committed.instruction.pointer,
                transient_load.instruction.pointer,
                transient=True,
            ):
                continue
            access = self.aeg.node_of(deps[0].source)
            report.witnesses.append(ClouWitness(
                engine=self.name,
                klass=TransmitterClass.DATA,
                transmit=self._ref(transient_load),
                primitive=self._ref(primitive),
                access=self._ref(access),
                window_start=self._ref(committed),
                transient_transmit=True,
                transient_access=False,
                store_hops=deps[0].store_hops,
            ))
            break  # one interference witness per transient load

    def speculation_sources(self, transmit: AEGNode, view: WindowView
                            ) -> list[tuple[AEGNode, AEGNode | None]]:
        bound = min(self.config.window_size, self.config.rob_size)
        return [(branch, None)
                for branch in view.branches_within(bound, fence_free=True)]

    def universal_first_hop_ok(self, dep: Dep) -> bool:
        # The addr_gep filter: base pointers stored in memory are not
        # attacker-controlled architecturally (§5.3).
        if self.config.addr_gep_filter:
            return dep.via_gep_index
        return True


class ClouSTL(DetectionEngine):
    """Spectre v4: store-to-load forwarding bypass (§5.3)."""

    name = "stl"
    attack = "Spectre v4 (speculative store bypass)"
    primitive = "load bypassing an unresolved same-address store"
    range_pruning = "none (the bypassed store invalidates slot ranges)"
    repair_note = "lfence between bypassed store and bypassing load"

    def __init__(self, aeg: SAEG, config: ClouConfig = CLOU_DEFAULT_CONFIG):
        super().__init__(aeg, config)
        self._bypassable = self._compute_bypassable()

    def _compute_bypassable(self) -> dict[int, AEGNode]:
        """load nid -> one store it can transiently bypass.

        A load bypasses a store when the store is possibly-same-address,
        still in the LSQ (within ``lsq_size`` instructions), and no
        lfence separates them.
        """
        bypassable: dict[int, AEGNode] = {}
        if self.config.lsq_size <= 0:
            return bypassable  # no store can be in flight
        for load in self.aeg.loads():
            view = self.aeg.window(load, self.config.lsq_size)
            # Stores come in position order: keep the latest.
            for node in reversed(view.stores_within(self.config.lsq_size,
                                                    fence_free=True)):
                if self.aeg.alias.may_alias(
                    node.instruction.pointer, load.instruction.pointer,
                    transient=self.config.assume_alias_prediction,
                ):
                    bypassable[load.nid] = node
                    break
        return bypassable

    def speculation_sources(self, transmit: AEGNode, view: WindowView
                            ) -> list[tuple[AEGNode, AEGNode | None]]:
        """The primitive is a bypassed store; the transient window starts
        at the bypassing load.  Any bypassable load ahead of the
        transmitter (within the ROB) opens a window over it."""
        sources = []
        for node in view.loads_within(self.config.rob_size, fence_free=True):
            store = self._bypassable.get(node.nid)
            if store is not None:
                sources.append((store, node))
        return sources

    def universal_first_hop_ok(self, dep: Dep) -> bool:
        # addr_gep cannot filter v4: a stale load can hand the attacker a
        # base pointer (§5.3).
        return True

    def _index_attacker_controlled(self, index: AEGNode) -> bool:
        # A bypassing load returns stale memory, which is attacker-
        # controlled regardless of type (§5.3); otherwise fall back to
        # ordinary taint.
        if index.nid in self._bypassable:
            return True
        return super()._index_attacker_controlled(index)


class ClouFWD(DetectionEngine):
    """Spectre v1.1 (FWD/NEW, §6.1): a *transient store* — executed in
    the shadow of a mispredicted branch — forwards wrong data to a
    later load, and a transmitter leaks the forwarded value.

    Two corruption modes, matched per (store, load) pair:

    - ``oob``: the store's address is attacker-controlled (the classic
      v1.1 bounds-check-bypassed write), so within the forward window
      it can hit *any* slot a later load reads — the forwarded value is
      attacker-chosen and the chain is universal (UDT/UCT);
    - ``forward``: the store's address is fixed but its *data* is
      tainted and it may alias the load architecturally — the load
      transiently observes a secret value that never commits (the NEW
      pattern, §6.1), a DT.

    Range pruning is sound here on the *store* side only (opt-in via
    ``enable_range_pruning``): a store that provably stays inside its
    object on every A-CFG path — including mispredicted ones — cannot go
    out of bounds, so it loses the ``oob`` mode (it keeps ``forward``).
    The load side must not prune, for the same reason as STL: a
    provably in-bounds load can still consume a corrupted value.
    """

    name = "fwd"
    attack = "Spectre v1.1 / NEW (transient store forwards wrong data)"
    primitive = "mispredicted branch shadowing a store"
    range_pruning = "store side only (provably bounded stores lose oob)"
    repair_note = "lfence per forward window (2/program in §6.1)"

    def __init__(self, aeg: SAEG, config: ClouConfig = CLOU_DEFAULT_CONFIG):
        super().__init__(aeg, config)
        self._corruptors, self._pruned_oob = self._compute_corruptors()
        self._pairs: dict[int, list] = {}

    def _compute_corruptors(self):
        """(store, guard branches, oob) triples: transient stores whose
        forward can corrupt a later load, plus the count of stores whose
        oob mode the interval analysis pruned away."""
        ranges = None
        if self.config.enable_range_pruning:
            from repro.analysis.interval import IntervalAnalysis

            ranges = IntervalAnalysis(self.aeg.function)
        corruptors = []
        pruned = 0
        rob = self.config.rob_size
        for store in self.aeg.stores():
            # The shortest branch-to-store path must fit the ROB; some
            # path, not necessarily that one, must be fence-free.
            guards = tuple(
                branch
                for branch in self.aeg.window(store, rob).branches_within(rob)
                if self.aeg.fence_free_between(branch, store)
            )
            if not guards:
                continue  # never executes transiently
            oob = self.aeg.value_tainted(store.instruction.pointer)
            if oob and ranges is not None and \
                    ranges.access_in_bounds(store.instruction):
                oob = False
                pruned += 1
            data_tainted = store.instruction.value is not None and \
                self.aeg.value_tainted(store.instruction.value)
            if not oob and not data_tainted:
                continue  # forwards neither a wrong slot nor a secret
            corruptors.append((store, guards, oob))
        return corruptors, pruned

    def prunes_ranges(self) -> bool:
        # The base engine's load-side pruning is unsound for FWD (an
        # in-bounds load can still read a corrupted slot); the sound
        # store-side pruning happens in _compute_corruptors instead.
        return False

    def speculation_sources(self, transmit: AEGNode, view: WindowView
                            ) -> list[tuple[AEGNode, AEGNode | None]]:
        """(guard branch, corrupting store) pairs visible from the
        transmitter.  API parity only: the FWD search overrides
        :meth:`_search_transmit` and matches stores per corrupted
        access instead."""
        sources = [
            (guards[0], store)
            for store, guards, _oob in self._corruptors
            if view.contains(store)
        ]
        sources.sort(key=lambda pair: pair[1].position)
        return sources

    def universal_first_hop_ok(self, dep: Dep) -> bool:
        # Like STL: a forwarded value can be a base pointer, so the
        # addr_gep filter does not apply.
        return True

    def _search(self, report: FunctionReport, budget: _Budget,
                state: _SearchState) -> None:
        if state.cursor == 0:
            # Store-side pruning happens once at corruptor construction;
            # attribute it to fresh runs only (a resumed checkpoint
            # already carries the count — checkpoints are only emitted
            # with cursor >= 1).
            report.pruned += self._pruned_oob
        super()._search(report, budget, state)

    def _search_transmit(self, transmit: AEGNode, view: WindowView,
                         address_deps: tuple[Dep, ...], want: set[str],
                         report: FunctionReport, budget: _Budget) -> None:
        for dep in address_deps:
            if budget.check():
                return
            if dep.store_hops > self.config.max_store_hops:
                continue
            access = self.aeg.node_of(dep.source)
            if access.nid == transmit.nid or not access.is_load:
                continue
            if not view.contains(access):
                continue  # outside the sliding window
            self._classify_forward(transmit, access, dep, view, want,
                                   report)
        if "ct" in want or "uct" in want:
            self._search_forward_control(transmit, view, want,
                                         report, budget)

    def _forward_pairs(self, access: AEGNode):
        """Corrupting (store, guards, oob) triples whose forward window
        covers ``access``: the store is earlier, still in the store
        queue (within ``lsq_size``), not fenced off, and — in forward
        mode — architecturally possibly same-address.  Memoized per
        access: the result depends on nothing else."""
        pairs = self._pairs.get(access.nid)
        if pairs is not None:
            return pairs
        view = self.aeg.window(access, self.config.lsq_size)
        pairs = self._pairs[access.nid] = []
        for store, guards, oob in self._corruptors:
            if not view.contains(store):
                continue
            if not self.aeg.fence_free_between(store, access):
                continue
            if not oob and not self.aeg.alias.may_alias(
                store.instruction.pointer, access.instruction.pointer,
            ):
                continue
            pairs.append((store, guards, oob))
        return pairs

    def _transient_pair(self, store: AEGNode, guards, access: AEGNode,
                        transmit: AEGNode, view: WindowView):
        """The first guard under which both the corrupted access and the
        transmitter are transient, or None."""
        for guard in guards:
            if self._is_transient(access, guard, store, view) and \
                    self._is_transient(transmit, guard, store, view):
                return guard
        return None

    def _classify_forward(self, transmit: AEGNode, access: AEGNode,
                          dep: Dep, view: WindowView, want: set[str],
                          report: FunctionReport) -> None:
        if not self.aeg.realizable([access, transmit]):
            return
        for store, guards, oob in self._forward_pairs(access):
            primitive = self._transient_pair(store, guards, access,
                                             transmit, view)
            if primitive is None:
                continue
            if not self.aeg.realizable([store, access, transmit]):
                continue
            if oob and "udt" in want:
                klass = TransmitterClass.UNIVERSAL_DATA
            elif "dt" in want:
                klass = TransmitterClass.DATA
            else:
                continue
            report.witnesses.append(ClouWitness(
                engine=self.name,
                klass=klass,
                transmit=self._ref(transmit),
                primitive=self._ref(primitive),
                access=self._ref(access),
                window_start=self._ref(store),
                transient_transmit=True,
                transient_access=True,
                store_hops=dep.store_hops,
            ))
            return  # one corrupting store per chain suffices

    def _search_forward_control(self, transmit: AEGNode, view: WindowView,
                                want: set[str], report: FunctionReport,
                                budget: _Budget) -> None:
        """Control-flow leakage of forwarded data (FWD04/FWD05's second
        window): a branch condition reads a corruptible load, and the
        transmitter in its shadow leaks the outcome."""
        for branch in self._branches_in(view):
            if budget.check():
                return
            cond_deps = self.aeg.branch_cond_deps(branch)
            if not cond_deps:
                continue
            if not self.aeg.realizable([branch, transmit]):
                continue
            reported = False
            for dep in cond_deps:
                if dep.store_hops > self.config.max_store_hops:
                    continue
                access = self.aeg.node_of(dep.source)
                if not access.is_load or not view.contains(access):
                    continue
                for store, guards, oob in self._forward_pairs(access):
                    primitive = self._transient_pair(store, guards, access,
                                                     transmit, view)
                    if primitive is None:
                        continue
                    if not self.aeg.realizable([store, access, branch]):
                        continue
                    if oob and "uct" in want:
                        klass = TransmitterClass.UNIVERSAL_CONTROL
                    elif "ct" in want:
                        klass = TransmitterClass.CONTROL
                    else:
                        continue
                    report.witnesses.append(ClouWitness(
                        engine=self.name,
                        klass=klass,
                        transmit=self._ref(transmit),
                        primitive=self._ref(primitive),
                        access=self._ref(access),
                        window_start=self._ref(store),
                        transient_transmit=True,
                        transient_access=True,
                        store_hops=dep.store_hops,
                    ))
                    reported = True
                    break
                if reported:
                    break
            # one control witness per (branch, transmit) suffices


class ClouPSF(ClouSTL):
    """Predictive store forwarding: the §5.2 alias-predicting hardware
    parameterization as its own engine.

    The STL dual: instead of a load *bypassing* a same-address store
    (reading stale memory), the load is *wrongly paired* with an
    earlier in-flight store by the forwarding predictor and transiently
    consumes a value destined for a different address (the Fig. 4b
    SPECTRE-PSF shape in :mod:`repro.lcm.attacks`).

    Pairing model: within the store-queue window any fence-free earlier
    store may be predicted to forward to the load — the predictor does
    not consult addresses, so the architectural alias result is
    irrelevant — *except* MUST-alias pairs, whose forward delivers the
    architecturally-correct value (that is STL's stale-read territory,
    not a misprediction).  Range pruning stays off for the same reason
    as STL: the forwarded value is unconstrained by the load's slot.
    """

    name = "psf"
    attack = "PSF (wrong-store forwarding via alias prediction)"
    primitive = "load wrongly paired with an in-flight store"
    range_pruning = "none (same reasoning as STL)"
    repair_note = "lfence between wrong store and forwarding load"

    def _compute_bypassable(self) -> dict[int, AEGNode]:
        """load nid -> the latest earlier store the predictor can
        wrongly forward from."""
        pairs: dict[int, AEGNode] = {}
        if self.config.lsq_size <= 0:
            return pairs  # no store can be in flight
        for load in self.aeg.loads():
            view = self.aeg.window(load, self.config.lsq_size)
            # Stores come in position order: keep the latest.
            for node in reversed(view.stores_within(self.config.lsq_size,
                                                    fence_free=True)):
                # A MUST pair is a correct forward: STL's case, not PSF's.
                if self.aeg.alias.alias(
                    node.instruction.pointer, load.instruction.pointer,
                ) is not AliasResult.MUST:
                    pairs[load.nid] = node
                    break
        return pairs


REFERENCE_ENGINES = {
    "pht": ClouPHT,
    "stl": ClouSTL,
    "fwd": ClouFWD,
    "psf": ClouPSF,
}
