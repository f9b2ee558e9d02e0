"""Event structures: one resolved control-flow path of a program (§2.1.1).

An :class:`EventStructure` fixes a control-flow path (all branches
resolved) and program order; the LCM extension additionally fixes the
*transient fetch order* ``tfo`` (§3.3), which splices bounded windows of
transient events into the committed instruction stream.

The structure also carries the syntactic dependency relations ``addr``,
``data`` and ``ctrl`` (§2.1.3), and the distinguished ⊤/⊥ events (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.events.event import (
    Bottom,
    Branch,
    Event,
    Fence,
    Location,
    MemoryEvent,
    Read,
    Top,
    Write,
)
from repro.relations import Relation


@dataclass(frozen=True)
class EventStructure:
    """A resolved control-flow path, with speculative extensions.

    Invariants (checked by :meth:`validate`):

    - ``po`` is a strict order on committed events per thread;
    - ``po`` is a subset of ``tfo``;
    - transient events appear in ``tfo`` but never in ``po``;
    - dependency relations only relate events ordered by ``tfo``.
    """

    events: tuple[Event, ...]
    po: Relation
    tfo: Relation
    addr: Relation = field(default_factory=Relation)
    data: Relation = field(default_factory=Relation)
    ctrl: Relation = field(default_factory=Relation)
    top: Top | None = None
    bottoms: tuple[Bottom, ...] = ()
    name: str = ""
    branch_constraints: tuple[tuple[Event, Event, bool], ...] = ()
    """Value constraints from resolved branches: ``(branch, read,
    expects_zero)`` — on this path, the branch's condition was the value
    returned by ``read`` and the path is only consistent with executions
    where that value is (non)zero.  Populated by elaboration when the
    condition is a direct (unmodified) load; used to filter candidate
    executions (litmus convention: initial memory is zero)."""

    # ------------------------------------------------------------------
    # Event views
    # ------------------------------------------------------------------

    @cached_property
    def memory_events(self) -> tuple[MemoryEvent, ...]:
        return tuple(e for e in self.events if isinstance(e, MemoryEvent))

    @cached_property
    def reads(self) -> tuple[Read, ...]:
        return tuple(e for e in self.events if isinstance(e, Read))

    @cached_property
    def writes(self) -> tuple[Write, ...]:
        return tuple(e for e in self.events if isinstance(e, Write))

    @cached_property
    def branches(self) -> tuple[Branch, ...]:
        return tuple(e for e in self.events if isinstance(e, Branch))

    @cached_property
    def fences(self) -> tuple[Fence, ...]:
        return tuple(e for e in self.events if isinstance(e, Fence))

    @cached_property
    def committed_events(self) -> tuple[Event, ...]:
        return tuple(e for e in self.events if e.committed)

    @cached_property
    def transient_events(self) -> tuple[Event, ...]:
        return tuple(e for e in self.events if e.transient)

    @cached_property
    def prefetch_events(self) -> tuple[Event, ...]:
        return tuple(e for e in self.events if e.prefetch)

    @cached_property
    def locations(self) -> frozenset[Location]:
        return frozenset(e.loc for e in self.memory_events)

    def writes_at(self, loc: Location) -> tuple[Write, ...]:
        return tuple(w for w in self.writes if w.loc == loc)

    # ------------------------------------------------------------------
    # Derived relations
    # ------------------------------------------------------------------

    @cached_property
    def po_loc(self) -> Relation:
        """Subset of po relating same-address memory events."""
        return self.po.filter(
            lambda a, b: isinstance(a, MemoryEvent)
            and isinstance(b, MemoryEvent)
            and a.loc == b.loc
        )

    @cached_property
    def tfo_loc(self) -> Relation:
        """Subset of tfo relating same-address memory events (§4.2)."""
        return self.tfo.filter(
            lambda a, b: isinstance(a, MemoryEvent)
            and isinstance(b, MemoryEvent)
            and a.loc == b.loc
        )

    @cached_property
    def dep(self) -> Relation:
        """dep = addr + data + ctrl (§2.1.3)."""
        return self.addr | self.data | self.ctrl

    @cached_property
    def fence_order(self) -> Relation:
        """Pairs ordered by an intervening fence event (the ``fence`` relation)."""
        pairs = []
        for fence in self.fences:
            before = self.po.predecessors(fence)
            after = self.po.successors(fence)
            pairs.extend((a, b) for a in before for b in after)
        return Relation(pairs)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Raise ``ValueError`` if structural invariants are violated."""
        ids = [e.eid for e in self.events]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate event ids in event structure")
        if not self.po.is_acyclic():
            raise ValueError("po has a cycle")
        if not self.tfo.is_acyclic():
            raise ValueError("tfo has a cycle")
        if not self.po.is_subset_of(self.tfo):
            missing = self.po - self.tfo
            raise ValueError(f"po must be a subset of tfo; missing {set(missing)!r}")
        transient = set(self.transient_events) | set(self.prefetch_events)
        for a, b in self.po:
            if a in transient or b in transient:
                raise ValueError(f"po relates non-committed event: {a!r} -> {b!r}")

    def __repr__(self) -> str:
        kind_counts = (
            f"{len(self.reads)}R/{len(self.writes)}W/"
            f"{len(self.transient_events)}S"
        )
        return f"<EventStructure {self.name or '?'}: {len(self.events)} events ({kind_counts})>"
