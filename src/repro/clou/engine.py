"""Leakage detection engines (§5.3).

Clou-PHT hunts Spectre v1/v1.1 patterns (speculation primitive: a
conditional branch steering a transient window); Clou-STL hunts Spectre
v4 patterns (speculation primitive: store-to-load forwarding past an
unresolved store).  Both look for violations of rf-non-interference and
then classify candidate transmitters by Table 1.  Clou-FWD (a transient
store forwarding wrong data) and Clou-PSF (a load wrongly paired with
an in-flight store) run the same search: every engine is the one
skeleton of :class:`DetectionEngine` with its primitive plugged in.

Scaling controls follow §6.2.1:

1. a sliding window — for each candidate transmitter only the
   instructions that can reach it within ``window_size`` instructions
   are considered (one block-granular reverse walk per block and
   bound, shared by every anchor in the block, see
   :meth:`repro.clou.aeg.SAEG.window`);
2. at most one speculative write in a pattern (``max_store_hops``);
3. universal patterns require a *transient* access instruction; a
   universal chain whose access commits is classified as a DT/CT.

The ``addr_gep`` filter (§5.3) applies to PHT only: the first addr
dependency of a universal pattern must be a getelementptr-index
dependency, filtering benign dereferences of trusted base pointers.
Spectre v4 can overwrite base pointers themselves, so STL cannot use it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from functools import cached_property

from repro.clou.aeg import AEGNode, Dep, SAEG, WindowView
from repro.clou.alias import AliasResult
from repro.clou.report import ClouWitness, FunctionReport, NodeRef
from repro.lcm.taxonomy import TransmitterClass


@dataclass(frozen=True)
class ClouConfig:
    """Analysis parameters (Fig. 6's "configuration parameters").

    The dataclass is frozen, so configs are hashable and usable as cache
    keys directly; :meth:`to_dict` / :meth:`from_dict` round-trip a
    config through JSON (``clou analyze --json`` embeds it, and the
    scheduler's on-disk result cache keys on :meth:`cache_key`).
    """

    rob_size: int = 250
    lsq_size: int = 50
    window_size: int = 250
    classes: tuple[str, ...] = ("udt", "uct", "dt", "ct")
    addr_gep_filter: bool = True
    max_store_hops: int = 1
    require_transient_access: bool = True
    timeout_seconds: float | None = None
    max_witnesses_per_function: int = 5000
    assume_alias_prediction: bool = False
    """§5.2: Clou's default hardware assumption is NO alias prediction;
    enabling this models PSF-style hardware — STL bypass pairs are then
    computed with transient alias results (anything may forward)."""
    detect_interference_variant: bool = False
    """§6.1: also report the new attack variant Clou identified in every
    PHT program — a DT where a *transient* instruction prefetches a cache
    line for a *non-transient*, tfo-prior instruction still in flight
    (the speculative-interference phenomenon)."""
    enable_range_pruning: bool = True
    """Use the branch-independent interval analysis
    (:mod:`repro.analysis.interval`) where an access is provably
    in-bounds even transiently.  PHT skips *universal* classification
    hops whose access is such a load — it can only read its own object,
    so the chain degrades to the DT/CT case the engine reports anyway.
    FWD drops the out-of-bounds mode of a transient store whose address
    is tainted but provably in bounds, so that store corrupts no other
    slot.  STL and PSF ignore the flag: the bypassed store invalidates
    the slot-range reasoning.  Sound because the intervals never trust
    branch conditions, so a mispredicted bounds check proves nothing
    (the Spectre v1 gadget stays flagged)."""
    solver_conflict_budget: int | None = None
    """Ignored.  σ-compatibility is an exact bitset check
    (:meth:`SAEG.realizable`) with no solver to budget; the field stays
    because the stable ``--json`` embeds the full config, so removing it
    changes every report's bytes."""
    fault_spec: str | None = None
    """A :mod:`repro.sched.faults` injection spec armed for this
    analysis (e.g. ``"seed=1;budget@engine.candidate%0.5"``).  Testing knob:
    off by default, travels with the config into worker processes so
    degradation tests are deterministic regardless of scheduling."""

    def to_dict(self) -> dict:
        """A JSON-ready dict with every field (tuples become lists)."""
        out = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            out[spec.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ClouConfig":
        """Inverse of :meth:`to_dict`.  Missing fields take their
        defaults (old serialized configs keep loading after new knobs
        are added); unknown keys are rejected."""
        known = {spec.name for spec in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown ClouConfig fields: {sorted(unknown)}")
        kwargs = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in data.items()
        }
        return cls(**kwargs)

    def cache_key(self) -> str:
        """A canonical string for content-addressed caching: field order
        and list/tuple distinctions are normalized away."""
        import json

        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


CLOU_DEFAULT_CONFIG = ClouConfig()


class _Budget:
    def __init__(self, seconds: float | None):
        self.deadline = time.monotonic() + seconds if seconds else None
        self.expired = False

    def check(self) -> bool:
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.expired = True
        return self.expired


def _candidate_fault(pos: int, budget: _Budget) -> None:
    """Positional injection point after candidate ``pos`` is
    checkpointed, so a resumed attempt starts past the fault.  A
    cooperative ``budget`` fault expires the run's budget exactly as an
    elapsed ``timeout_seconds`` does: the remaining candidates are
    skipped and the report is incomplete."""
    from repro.sched.faults import fault_point

    if fault_point("engine.candidate", hit=pos + 1) == "budget":
        budget.expired = True


class _SearchState:
    """Checkpoint bookkeeping for one engine run.

    ``cursor``/``icursor`` count memory nodes fully processed by the
    main/interference search loops; a resumed run replays the node
    enumeration (which is deterministic) and skips the prefix.

    Each checkpoint message is a delta: the coverage counters, the
    :class:`ClouWitness` objects found since the previous message, and
    ``base``, the number of witnesses sent before them (a resumed run
    starts ``base`` at its resume's count).  The engine only appends
    witnesses, so folding the messages in order
    (:func:`repro.sched.scheduler._fold`) rebuilds the full checkpoint:
    the counters plus every witness so far.  That folded checkpoint is
    self-contained, so a fresh process can seed
    :meth:`DetectionEngine.run` with it and produce a report equal to an
    uninterrupted run: the suffix is recomputed identically, and the
    counters resume from their checkpointed values.
    """

    def __init__(self, resume: dict | None, emit) -> None:
        self.cursor = 0
        self.icursor = 0
        self.total = 0
        self._emit = emit
        self._sent = 0
        if resume:
            self.cursor = resume.get("cursor", 0)
            self.icursor = resume.get("icursor", 0)
            self._sent = len(resume.get("witnesses", ()))

    def seed(self, report: FunctionReport, resume: dict | None) -> None:
        """Restore a report's witnesses and counters from a folded
        checkpoint (copied: the folded list keeps growing)."""
        if not resume:
            return
        report.witnesses.extend(resume.get("witnesses", ()))
        report.candidates = resume.get("candidates", 0)
        report.pruned = resume.get("pruned", 0)
        report.skipped = resume.get("skipped", 0)

    def snapshot(self, report: FunctionReport) -> None:
        if self._emit is None:
            return
        base, self._sent = self._sent, len(report.witnesses)
        self._emit({
            "cursor": self.cursor,
            "icursor": self.icursor,
            "total": self.total,
            "candidates": report.candidates,
            "pruned": report.pruned,
            "skipped": report.skipped,
            "witnesses": report.witnesses[base:],
            "base": base,
        })


ENGINES: dict[str, type["DetectionEngine"]] = {}
"""The engine registry: name -> DetectionEngine subclass.

Populated by :func:`register_engine`.  Every consumer — CLI ``--engine``
choices, scheduler/session validation, cache keying, the bench harness
engine columns, the fuzz oracle matrix, and the fault sweep — derives
its engine list from this dict, so registering a new engine once makes
it reachable everywhere.
"""


def register_engine(cls: type["DetectionEngine"]) -> type["DetectionEngine"]:
    """Class decorator adding a :class:`DetectionEngine` subclass to
    :data:`ENGINES` under its ``name``.  Names must be unique and not
    the abstract base's placeholder."""
    name = getattr(cls, "name", "")
    if not name or name == "base":
        raise ValueError(f"engine class {cls.__name__} needs a "
                         "non-default 'name' attribute to register")
    if name in ENGINES:
        raise ValueError(f"duplicate engine name {name!r} "
                         f"({ENGINES[name].__name__} vs {cls.__name__})")
    ENGINES[name] = cls
    return cls


def engine_names() -> tuple[str, ...]:
    """All registered engine names, sorted (the CLI's choice list)."""
    return tuple(sorted(ENGINES))


class DetectionEngine:
    """The one rf-non-interference search every engine runs (§5.3).

    The base class owns the loops: over the memory nodes as candidate
    transmitters (:meth:`_search`), over each transmitter's address deps
    (:meth:`_search_transmit`), and over the branches of its window and
    their condition deps (:meth:`_search_control`).  An engine plugs in
    its speculation primitive through three hooks:

    - :meth:`speculation_sources`: the (primitive, window start) pairs
      that can make a transmitter transient; none skips it;
    - :meth:`_classify_data`: one access -addr-> transmit chain;
    - :meth:`_classify_control`: one access -ctrl-> branch dependency of
      a branch in the transmitter's window.

    The default classifiers are the Table 1 classification PHT and STL
    share; FWD replaces both.
    """

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

    def _witness(self, report: FunctionReport, klass: TransmitterClass, *,
                 transmit: AEGNode, primitive: AEGNode, access: AEGNode,
                 window_start: AEGNode | None, store_hops: int,
                 index: AEGNode | None = None,
                 transient_transmit: bool = True,
                 transient_access: bool = True) -> None:
        report.witnesses.append(ClouWitness(
            engine=self.name,
            klass=klass,
            transmit=self._ref(transmit),
            primitive=self._ref(primitive),
            access=self._ref(access),
            index=None if index is None else self._ref(index),
            window_start=self._ref(window_start),
            transient_transmit=transient_transmit,
            transient_access=transient_access,
            store_hops=store_hops,
        ))

    # -- per-engine hooks --------------------------------------------------

    def prunes_ranges(self) -> bool:
        """Does this engine prune universal chains whose *access* is
        provably in bounds?  (PHT only: under STL the bypassed store
        invalidates slot-range reasoning, and under FWD an in-bounds
        load can still read a corrupted slot.)"""
        return False

    @cached_property
    def ranges(self):
        """The function's IntervalAnalysis, built on first use: PHT's
        load-side and FWD's store-side range pruning."""
        from repro.analysis.interval import IntervalAnalysis

        return IntervalAnalysis(self.aeg.function)

    def speculation_sources(self, transmit: AEGNode, view: WindowView
                            ) -> list[tuple[AEGNode, AEGNode | None]]:
        """Candidate (primitive, window_start) pairs that could make
        ``transmit`` execute transiently (window_start is the first
        transient instruction; None means the primitive itself)."""
        raise NotImplementedError

    def universal_first_hop_ok(self, dep: Dep) -> bool:
        """May ``dep`` be the index -> access hop of a universal chain?
        Yes, except under PHT's addr_gep filter: a stale load can hand
        the attacker a base pointer (§5.3), so STL cannot filter."""
        return True

    # -- shared search -------------------------------------------------------

    def run(self, *, resume: dict | None = None,
            checkpoint=None) -> FunctionReport:
        """Run the search.  ``checkpoint`` is a callable receiving a
        delta message after each fully-processed candidate (see
        :class:`_SearchState`); ``resume`` is the fold of such messages
        from an earlier interrupted run of the same (function, engine,
        config).  The final report is identical whether or not the run
        was interrupted and resumed."""
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
            # Fig. 7 σ-compatibility: the chain endpoints must co-execute
            # on one architectural path (the window already walks real
            # CFG edges, so this can only reject patterns the pairwise
            # checks over-approximated).
            if not self.aeg.realizable([access, transmit]):
                continue
            self._classify_data(transmit, access, dep, primitives, view,
                                want, report)
        if "ct" in want or "uct" in want:
            self._search_control(transmit, view, primitives, want,
                                 report, budget)

    def _search_control(self, transmit: AEGNode, view: WindowView,
                        primitives: list[tuple[AEGNode, AEGNode | None]],
                        want: set[str], report: FunctionReport,
                        budget: _Budget) -> None:
        """access -ctrl-> transmit patterns: the transmitter leaks the
        outcome of a branch on the access's loaded value.  The first
        primitive that makes the transmitter transient is the source;
        one witness per (branch, transmitter) suffices."""
        for source in primitives:
            if self._is_transient(transmit, *source, view):
                break
        else:
            return
        for branch in view.branches_within(self.config.window_size):
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
                if self._classify_control(transmit, branch,
                                          self.aeg.node_of(dep.source), dep,
                                          source, view, want, report):
                    break

    def _classify_data(self, transmit: AEGNode, access: AEGNode, dep: Dep,
                       primitives: list[tuple[AEGNode, AEGNode | None]],
                       view: WindowView, want: set[str],
                       report: FunctionReport) -> None:
        """Table 1 data classes of access -addr-> transmit, under the
        first primitive that makes the access or the transmitter
        transient: a UDT when an attacker-controlled index in the window
        addresses a transient access, else a DT."""
        for primitive, window_start in primitives:
            access_transient = self._is_transient(access, primitive,
                                                  window_start, view)
            transmit_transient = self._is_transient(transmit, primitive,
                                                    window_start, view)
            if not (access_transient or transmit_transient):
                continue
            # Committed access: leakage scope is bounded, so the pattern
            # downgrades to a DT (§6.2.1).
            if self._universal_wanted("udt", access, want, report) and (
                    access_transient
                    or not self.config.require_transient_access):
                for index_dep in self.aeg.address_deps(access):
                    if not self.universal_first_hop_ok(index_dep):
                        continue
                    hops = dep.store_hops + index_dep.store_hops
                    if hops > self.config.max_store_hops:
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
                    self._witness(report, TransmitterClass.UNIVERSAL_DATA,
                                  transmit=transmit, primitive=primitive,
                                  access=access, window_start=window_start,
                                  index=index, store_hops=hops,
                                  transient_transmit=transmit_transient,
                                  transient_access=access_transient)
                    return
            if "dt" in want:
                self._witness(report, TransmitterClass.DATA,
                              transmit=transmit, primitive=primitive,
                              access=access, window_start=window_start,
                              store_hops=dep.store_hops,
                              transient_transmit=transmit_transient,
                              transient_access=access_transient)
            return  # one primitive witness per chain suffices

    def _classify_control(self, transmit: AEGNode, branch: AEGNode,
                          access: AEGNode, dep: Dep,
                          source: tuple[AEGNode, AEGNode | None],
                          view: WindowView, want: set[str],
                          report: FunctionReport) -> bool:
        """Table 1 control classes of access -ctrl-> ``branch``: a UCT
        when an attacker-controlled index addresses a transient access,
        else a CT.  True when a witness was reported."""
        primitive, window_start = source
        access_transient = self._is_transient(access, primitive,
                                              window_start, view)
        if self._universal_wanted("uct", access, want, report) and (
                access_transient or not self.config.require_transient_access):
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
                self._witness(report, TransmitterClass.UNIVERSAL_CONTROL,
                              transmit=transmit, primitive=primitive,
                              access=access, window_start=window_start,
                              index=index,
                              store_hops=dep.store_hops + index_dep.store_hops,
                              transient_access=access_transient)
                return True
        if "ct" in want:
            self._witness(report, TransmitterClass.CONTROL,
                          transmit=transmit, primitive=primitive,
                          access=access, window_start=window_start,
                          store_hops=dep.store_hops,
                          transient_access=access_transient)
            return True
        return False

    # -- helpers ---------------------------------------------------------------

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
        return self.prunes_ranges() and \
            self.ranges.access_in_bounds(access.instruction)

    def _universal_wanted(self, klass: str, access: AEGNode, want: set[str],
                          report: FunctionReport) -> bool:
        """Is the universal class ``klass`` ("udt"/"uct") wanted with
        ``access`` as its access?  A provably bounded access is not, and
        counts as pruned."""
        if klass not in want:
            return False
        if self._access_provably_bounded(access):
            report.pruned += 1
            return False
        return True


@register_engine
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
            self._witness(report, TransmitterClass.DATA,
                          transmit=transient_load, primitive=primitive,
                          access=self.aeg.node_of(deps[0].source),
                          window_start=committed, transient_access=False,
                          store_hops=deps[0].store_hops)
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


@register_engine
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
        """load nid -> the latest earlier store the load can transiently
        pair with: still in the LSQ (within ``lsq_size`` instructions),
        no lfence between them, and :meth:`_can_pair` holds."""
        bypassable: dict[int, AEGNode] = {}
        if self.config.lsq_size <= 0:
            return bypassable  # no store can be in flight
        for load in self.aeg.loads():
            view = self.aeg.window(load, self.config.lsq_size)
            # Stores come in position order: keep the latest.
            for node in reversed(view.stores_within(self.config.lsq_size,
                                                    fence_free=True)):
                if self._can_pair(node, load):
                    bypassable[load.nid] = node
                    break
        return bypassable

    def _can_pair(self, store: AEGNode, load: AEGNode) -> bool:
        """Can ``load`` bypass ``store``?  When they may share an
        address (under ``assume_alias_prediction``, transiently any
        two may)."""
        return self.aeg.alias.may_alias(
            store.instruction.pointer, load.instruction.pointer,
            transient=self.config.assume_alias_prediction,
        )

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

    def _index_attacker_controlled(self, index: AEGNode) -> bool:
        # A bypassing load returns stale memory, which is attacker-
        # controlled regardless of type (§5.3); otherwise fall back to
        # ordinary taint.
        if index.nid in self._bypassable:
            return True
        return super()._index_attacker_controlled(index)


@register_engine
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

    The transient window of every FWD pattern starts at the corrupting
    store, so the guard named in a witness is the store's first one.
    """

    name = "fwd"
    attack = "Spectre v1.1 / NEW (transient store forwards wrong data)"
    primitive = "mispredicted branch shadowing a store"
    range_pruning = "store side only (provably bounded stores lose oob)"
    repair_note = "lfence per forward window (2/program in §6.1)"

    def __init__(self, aeg: SAEG, config: ClouConfig = CLOU_DEFAULT_CONFIG):
        super().__init__(aeg, config)
        self._pruned_oob = 0
        self._corruptors = self._compute_corruptors()
        self._pairs: dict[int, list] = {}

    def _compute_corruptors(self) -> dict[int, tuple[AEGNode, bool]]:
        """store nid -> (first guard branch, oob) for every transient
        store whose forward can corrupt a later load; counts the stores
        whose oob mode the interval analysis pruned away."""
        corruptors = {}
        rob = self.config.rob_size
        for store in self.aeg.stores():
            # The shortest branch-to-store path must fit the ROB; some
            # path, not necessarily that one, must be fence-free.
            guard = next((
                branch
                for branch in self.aeg.window(store, rob).branches_within(rob)
                if self.aeg.fence_free_between(branch, store)
            ), None)
            if guard is None:
                continue  # never executes transiently
            oob = self.aeg.value_tainted(store.instruction.pointer)
            if oob and self.config.enable_range_pruning and \
                    self.ranges.access_in_bounds(store.instruction):
                oob = False
                self._pruned_oob += 1
            data_tainted = store.instruction.value is not None and \
                self.aeg.value_tainted(store.instruction.value)
            if not oob and not data_tainted:
                continue  # forwards neither a wrong slot nor a secret
            corruptors[store.nid] = (guard, oob)
        return corruptors

    def speculation_sources(self, transmit: AEGNode, view: WindowView
                            ) -> list[tuple[AEGNode, AEGNode | None]]:
        """(guard, corrupting store) for every corrupting store whose
        transient window covers the transmitter: within ``rob_size`` of
        it on a fence-free path.  Every FWD witness needs one, so an
        empty list skips the transmitter."""
        return [
            (self._corruptors[store.nid][0], store)
            for store in view.stores_within(self.config.rob_size,
                                            fence_free=True)
            if store.nid in self._corruptors
        ]

    def _search(self, report: FunctionReport, budget: _Budget,
                state: _SearchState) -> None:
        if state.cursor == 0:
            # Store-side pruning happens once at corruptor construction;
            # attribute it to fresh runs only (a resumed checkpoint
            # already carries the count — checkpoints are only emitted
            # with cursor >= 1).
            report.pruned += self._pruned_oob
        super()._search(report, budget, state)

    def _forward_pairs(self, access: AEGNode) -> list:
        """Corrupting (store, guard, oob) triples whose forward window
        covers ``access``, in position order: the store is earlier,
        still in the store queue (within ``lsq_size``), not fenced off,
        and — in forward mode — architecturally possibly same-address.
        Memoized per access: the result depends on nothing else."""
        pairs = self._pairs.get(access.nid)
        if pairs is not None:
            return pairs
        pairs = self._pairs[access.nid] = []
        lsq = self.config.lsq_size
        for store in self.aeg.window(access, lsq).stores_within(lsq):
            corruptor = self._corruptors.get(store.nid)
            if corruptor is None:
                continue
            if not self.aeg.fence_free_between(store, access):
                continue
            guard, oob = corruptor
            if not oob and not self.aeg.alias.may_alias(
                store.instruction.pointer, access.instruction.pointer,
            ):
                continue
            pairs.append((store, guard, oob))
        return pairs

    def _corruptions(self, access: AEGNode, transmit: AEGNode,
                     view: WindowView):
        """The (store, guard, oob) forward pairs of ``access`` whose
        transient window covers both ``access`` and ``transmit``."""
        for store, guard, oob in self._forward_pairs(access):
            if self._is_transient(access, guard, store, view) and \
                    self._is_transient(transmit, guard, store, view):
                yield store, guard, oob

    def _classify_data(self, transmit: AEGNode, access: AEGNode, dep: Dep,
                       primitives: list[tuple[AEGNode, AEGNode | None]],
                       view: WindowView, want: set[str],
                       report: FunctionReport) -> None:
        """One witness per chain, from its first corrupting store: a
        UDT for an oob store, else a DT."""
        for store, guard, oob in self._corruptions(access, transmit, view):
            if not self.aeg.realizable([store, access, transmit]):
                continue
            if oob and "udt" in want:
                klass = TransmitterClass.UNIVERSAL_DATA
            elif "dt" in want:
                klass = TransmitterClass.DATA
            else:
                continue
            self._witness(report, klass, transmit=transmit, primitive=guard,
                          access=access, window_start=store,
                          store_hops=dep.store_hops)
            return

    def _classify_control(self, transmit: AEGNode, branch: AEGNode,
                          access: AEGNode, dep: Dep,
                          source: tuple[AEGNode, AEGNode | None],
                          view: WindowView, want: set[str],
                          report: FunctionReport) -> bool:
        """Control-flow leakage of forwarded data (FWD04/FWD05's second
        window): the branch condition reads a corruptible load in the
        window, and the transmitter in its shadow leaks the outcome."""
        if not view.contains(access):
            return False
        for store, guard, oob in self._corruptions(access, transmit, view):
            if not self.aeg.realizable([store, access, branch]):
                continue
            if oob and "uct" in want:
                klass = TransmitterClass.UNIVERSAL_CONTROL
            elif "ct" in want:
                klass = TransmitterClass.CONTROL
            else:
                continue
            self._witness(report, klass, transmit=transmit, primitive=guard,
                          access=access, window_start=store,
                          store_hops=dep.store_hops)
            return True
        return False


@register_engine
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

    def _can_pair(self, store: AEGNode, load: AEGNode) -> bool:
        # A MUST pair is a correct forward: STL's case, not PSF's.
        return self.aeg.alias.alias(
            store.instruction.pointer, load.instruction.pointer,
        ) is not AliasResult.MUST
