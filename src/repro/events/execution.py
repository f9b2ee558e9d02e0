"""Execution witnesses and candidate executions (§2.1.2, §3.2).

An :class:`ExecutionWitness` instantiates the architectural communication
relations ``rf``/``co`` for an event structure (``fr`` is derived).  An
:class:`XWitness` instantiates the microarchitectural analogues ``rfx``/
``cox`` over xstate accesses (``frx`` is derived).  A
:class:`CandidateExecution` bundles a structure with both witnesses.

⊤ is treated as the coherence-first write of every location and xstate
element, so reads-from-initial-state is an ordinary ``rf``/``rfx`` edge
from ⊤ rather than an implicit convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.events.event import (
    AccessKind,
    Bottom,
    Event,
    Read,
    Top,
    Write,
)
from repro.events.structure import EventStructure
from repro.relations import Relation


@dataclass(frozen=True)
class ExecutionWitness:
    """The architectural communication choices: rf and co (§2.1.2).

    - ``rf`` maps each Write (or ⊤) to the Reads it sources; every read has
      exactly one source.
    - ``co`` is, per location, a strict total order on Writes with ⊤ first.
    """

    rf: Relation
    co: Relation

    def fr_for(self, structure: EventStructure) -> Relation:
        """fr = ~rf.co restricted to same-location pairs (§2.1.2).

        A read from ⊤ is fr-before every write to its location.
        """
        top = structure.top
        pairs = []
        for source, read in self.rf:
            if not isinstance(read, Read) or isinstance(read, Bottom):
                continue
            if top is not None and source == top:
                successors = set(structure.writes_at(read.loc))
            else:
                successors = {
                    w
                    for w in self.co.successors(source)
                    if isinstance(w, Write) and w.loc == read.loc
                }
            pairs.extend((read, w) for w in successors if w != read)
        return Relation(pairs, "fr")


@dataclass(frozen=True)
class XWitness:
    """The microarchitectural communication choices (§3.2.2).

    - ``xmap`` assigns each event the xstate element it accesses (None for
      events that do not touch xstate);
    - ``kinds`` records *how* each event accesses its element (§3.2.1);
    - ``rfx`` maps xstate writers to the xstate readers they source;
    - ``cox`` is, per element, a strict total order on xstate writers.
    """

    xmap: dict[Event, object]
    kinds: dict[Event, AccessKind]
    rfx: Relation
    cox: Relation

    def element_of(self, event: Event) -> object:
        return self.xmap.get(event)

    def kind_of(self, event: Event) -> AccessKind | None:
        return self.kinds.get(event)

    def reads_xstate(self, event: Event) -> bool:
        kind = self.kinds.get(event)
        return kind is not None and kind.reads_xstate

    def writes_xstate(self, event: Event) -> bool:
        kind = self.kinds.get(event)
        return kind is not None and kind.writes_xstate

    def frx(self, top: Top | None) -> Relation:
        """frx = ~rfx.cox per xstate element (reads-before, §4.2)."""
        pairs = []
        same_element_writers: dict[object, list[Event]] = {}
        for event, element in self.xmap.items():
            if element is not None and self.writes_xstate(event):
                same_element_writers.setdefault(element, []).append(event)
        for source, reader in self.rfx:
            element = self.xmap.get(reader)
            if element is None:
                continue
            if top is not None and source == top:
                successors = set(same_element_writers.get(element, ()))
            else:
                successors = {
                    w
                    for w in self.cox.successors(source)
                    if self.xmap.get(w) == element
                }
            pairs.extend((reader, w) for w in successors if w != reader)
        return Relation(pairs, "frx")


@dataclass(frozen=True)
class CandidateExecution:
    """An event structure completed with architectural and (optionally)
    microarchitectural witnesses — one node of the LCM semantics."""

    structure: EventStructure
    witness: ExecutionWitness
    xwitness: XWitness | None = None

    # -- architectural relations ---------------------------------------

    @property
    def rf(self) -> Relation:
        return self.witness.rf

    @property
    def co(self) -> Relation:
        return self.witness.co

    @cached_property
    def fr(self) -> Relation:
        return self.witness.fr_for(self.structure)

    @cached_property
    def com(self) -> Relation:
        return self.rf | self.co | self.fr

    @cached_property
    def rfi(self) -> Relation:
        """rf-internal: source and sink on the same thread (⊤ counts as
        every thread, matching the single-core focus of §4.1)."""
        top = self.structure.top
        return self.rf.filter(lambda w, r: w == top or w.tid == r.tid)

    @cached_property
    def rfe(self) -> Relation:
        top = self.structure.top
        return self.rf.filter(lambda w, r: w != top and w.tid != r.tid)

    # -- microarchitectural relations ----------------------------------

    @property
    def rfx(self) -> Relation:
        self._require_xwitness()
        return self.xwitness.rfx

    @property
    def cox(self) -> Relation:
        self._require_xwitness()
        return self.xwitness.cox

    @cached_property
    def frx(self) -> Relation:
        self._require_xwitness()
        return self.xwitness.frx(self.structure.top)

    @cached_property
    def comx(self) -> Relation:
        return self.rfx | self.cox | self.frx

    def _require_xwitness(self) -> None:
        if self.xwitness is None:
            raise ValueError(
                "this candidate execution has no microarchitectural witness; "
                "extend it with repro.lcm.microarch first"
            )

    # -- rendering ------------------------------------------------------

    def describe(self) -> str:
        """A deterministic multi-line rendering used in docs and goldens."""
        lines = [f"candidate execution of {self.structure.name or '<anonymous>'}:"]
        for event in self.structure.events:
            annot = ""
            if self.xwitness is not None:
                element = self.xwitness.element_of(event)
                kind = self.xwitness.kind_of(event)
                if element is not None and kind is not None:
                    annot = f" ({kind.value} {element})"
            lines.append(f"  {event!r}{annot}")
        for label, rel in self.relations().items():
            if rel:
                rendered = sorted(f"{a.label}->{b.label}" for a, b in rel)
                lines.append(f"  {label}: {', '.join(rendered)}")
        return "\n".join(lines)

    def relations(self) -> dict[str, Relation]:
        rels = {
            "po": self.structure.po.immediate(),
            "tfo": self.structure.tfo.immediate(),
            "addr": self.structure.addr,
            "data": self.structure.data,
            "ctrl": self.structure.ctrl,
            "rf": self.rf,
            "co": self.co,
            "fr": self.fr,
        }
        if self.xwitness is not None:
            rels.update({"rfx": self.rfx, "cox": self.cox, "frx": self.frx})
        return rels

    def with_xwitness(self, xwitness: XWitness) -> "CandidateExecution":
        return CandidateExecution(self.structure, self.witness, xwitness)

