"""Report types for Clou analyses (Fig. 6's outputs: transmitters +
witness executions)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clou.aeg import AEGNode
from repro.lcm.taxonomy import TransmitterClass


@dataclass(frozen=True)
class NodeRef:
    """A stable, printable reference to an S-AEG node.

    ``provenance`` names the storage a memory node touches (the alias
    analysis base, e.g. ``global:sec_table``) — used by the secrecy-label
    filter of :mod:`repro.clou.postprocess` and handy in reports.
    """

    block: str
    index: int
    text: str
    provenance: str = ""

    @classmethod
    def of(cls, node: AEGNode, aeg=None) -> "NodeRef":
        provenance = ""
        if aeg is not None:
            ins = node.instruction
            pointer = getattr(ins, "pointer", None)
            if pointer is not None:
                provenance = str(aeg.alias.value_provenance(pointer))
        return cls(node.block, node.index, str(node.instruction), provenance)

    def __str__(self) -> str:
        suffix = f"  <{self.provenance}>" if self.provenance else ""
        return f"[{self.block}#{self.index}] {self.text}{suffix}"


@dataclass(frozen=True)
class ClouWitness:
    """One leakage witness: the speculation primitive plus the chain."""

    engine: str                     # 'pht' | 'stl'
    klass: TransmitterClass
    transmit: NodeRef
    primitive: NodeRef              # the branch (PHT) / bypassed store (STL)
    access: NodeRef | None = None
    index: NodeRef | None = None
    window_start: NodeRef | None = None  # STL: the bypassing load
    transient_transmit: bool = True
    transient_access: bool = False
    store_hops: int = 0
    """Total (data.rf) memory hops in the chain — 0 means a pure
    addr_gep/addr pattern, the high-confidence class of §6.2.2's
    worst-case-alias counts (the parenthesized numbers in Table 2)."""
    confirmed: bool = True
    """Always True from the engines, whose σ-compatibility check is
    exact; kept in the stable schema.  An unconfirmed witness (from an
    older serialized report) never counts toward a ``leak`` verdict on
    its own — it degrades the function to ``unknown`` instead."""

    def describe(self) -> str:
        parts = [f"{self.klass.value} via {self.engine.upper()}"]
        if not self.confirmed:
            parts[0] += " (unconfirmed)"
        parts.append(f"  primitive: {self.primitive}")
        if self.index is not None:
            parts.append(f"  index:     {self.index}")
        if self.access is not None:
            marker = " (transient)" if self.transient_access else ""
            parts.append(f"  access:    {self.access}{marker}")
        marker = " (transient)" if self.transient_transmit else ""
        parts.append(f"  transmit:  {self.transmit}{marker}")
        return "\n".join(parts)


def class_counts(transmitters) -> dict[TransmitterClass, int]:
    """Witnesses per class, every class present, in
    :class:`TransmitterClass` order (the ``counts``/``totals`` order of
    the stable JSON)."""
    counts = dict.fromkeys(TransmitterClass, 0)
    for witness in transmitters:
        counts[witness.klass] += 1
    return counts


@dataclass
class FunctionReport:
    """Result of running one engine over one public function."""

    function: str
    engine: str
    witnesses: list[ClouWitness] = field(default_factory=list)
    aeg_size: int = 0
    elapsed: float = 0.0
    timed_out: bool = False
    error: str | None = None
    candidates: int = 0
    """Candidate transmitters that reached the windowed search."""
    pruned: int = 0
    """Universal-classification hops skipped by range pruning — accesses
    the interval analysis proved in-bounds on every A-CFG path."""
    skipped: int = 0
    """Candidate transmitters never examined because the cooperative
    budget expired or the witness cap was hit first.  Non-zero skipped
    means a SAFE-looking report only covers part of the function."""
    undecided: int = 0
    """Undecided σ-compatibility queries.  Always 0: the check is exact
    (:meth:`repro.clou.aeg.SAEG.realizable`); kept in the stable
    ``coverage`` schema."""

    def transmitters(self) -> list[ClouWitness]:
        """One witness per distinct (transmit node, class), ordered by
        (block, index, severity) so reports are byte-stable across runs."""
        seen: dict[tuple[str, int, TransmitterClass], ClouWitness] = {}
        for witness in self.witnesses:
            key = (witness.transmit.block, witness.transmit.index, witness.klass)
            held = seen.get(key)
            # Prefer a confirmed witness over an unconfirmed duplicate so
            # serialization (which stores only transmitters) preserves
            # the verdict; otherwise first wins, keeping output stable.
            if held is None or (witness.confirmed and not held.confirmed):
                seen[key] = witness
        return sorted(
            seen.values(),
            key=lambda w: (w.transmit.block, w.transmit.index,
                           -w.klass.severity, w.klass.value),
        )

    def counts(self) -> dict[TransmitterClass, int]:
        return class_counts(self.transmitters())

    @property
    def leaky(self) -> bool:
        return bool(self.witnesses)

    @property
    def complete(self) -> bool:
        """Did the search cover the whole function with every query
        decided?  Only complete, error-free runs may claim SAFE (and
        only those are cached on disk)."""
        return (not self.timed_out and self.error is None
                and self.skipped == 0 and self.undecided == 0)

    @property
    def verdict(self) -> str:
        """The three-valued verdict lattice: ``leak`` ⊐ ``unknown`` ⊐
        ``safe``.  ``leak`` needs a *confirmed* witness; an incomplete or
        undecided search without one can only say ``unknown`` — a
        degraded run never silently reports safety it did not prove."""
        if any(w.confirmed for w in self.witnesses):
            return "leak"
        if self.witnesses or not self.complete:
            return "unknown"
        return "safe"

    def coverage(self) -> dict[str, int]:
        """The candidate accounting behind the verdict (serialized as
        the ``coverage`` section of ``--json``)."""
        return {
            "examined": self.candidates,
            "pruned": self.pruned,
            "skipped_by_budget": self.skipped,
            "undecided": self.undecided,
        }

    def summary(self) -> str:
        counts = self.counts()
        rendered = "/".join(
            f"{counts[k]}{k.value}"
            for k in (TransmitterClass.DATA, TransmitterClass.CONTROL,
                      TransmitterClass.UNIVERSAL_DATA,
                      TransmitterClass.UNIVERSAL_CONTROL)
        )
        status = " TIMEOUT" if self.timed_out else ""
        if not self.complete:
            status += (f" INCOMPLETE(skipped={self.skipped}"
                       f" undecided={self.undecided})")
        return (f"{self.function} [{self.engine}] "
                f"{rendered} in {self.elapsed:.2f}s "
                f"(aeg={self.aeg_size}, verdict={self.verdict}){status}")


@dataclass
class ModuleReport:
    """Aggregated results over every analyzed public function."""

    name: str
    engine: str
    functions: list[FunctionReport] = field(default_factory=list)
    config: "object | None" = None
    """The :class:`repro.clou.engine.ClouConfig` the analysis ran under.
    Populated by :meth:`repro.sched.ClouSession.run` so configs
    round-trip through ``--json`` (deterministic, so it is part of the
    byte-stable output)."""
    stats: "object | None" = None
    """Scheduler observability (a :class:`repro.sched.SessionStats`):
    per-item timings, cache hits/misses, retries, timeouts, crashes,
    plus the aggregated candidate/pruned counters.  Populated by
    :meth:`repro.sched.ClouSession.run`; never serialized into the
    byte-stable ``--json`` output (wall-clock data would break it)."""

    def total(self, klass: TransmitterClass) -> int:
        return self.totals()[klass]

    def totals(self) -> dict[TransmitterClass, int]:
        """Transmitters per class over every function: one
        :meth:`FunctionReport.transmitters` call per function."""
        return class_counts(w for report in self.functions
                            for w in report.transmitters())

    @property
    def elapsed(self) -> float:
        return sum(report.elapsed for report in self.functions)

    @property
    def transmitters(self) -> list[ClouWitness]:
        """All transmitters in deterministic (function, block, index)
        order, independent of analysis order."""
        return [
            w
            for report in sorted(self.functions, key=lambda r: r.function)
            for w in report.transmitters()
        ]

    @property
    def candidates(self) -> int:
        return sum(report.candidates for report in self.functions)

    @property
    def pruned(self) -> int:
        return sum(report.pruned for report in self.functions)

    @property
    def skipped(self) -> int:
        return sum(report.skipped for report in self.functions)

    @property
    def undecided(self) -> int:
        return sum(report.undecided for report in self.functions)

    @property
    def complete(self) -> bool:
        return all(report.complete for report in self.functions)

    @property
    def verdict(self) -> str:
        """Module-level verdict: ``leak`` if any function leaks, else
        ``unknown`` if any function is undecided/incomplete, else
        ``safe``."""
        verdicts = {report.verdict for report in self.functions}
        if "leak" in verdicts:
            return "leak"
        if "unknown" in verdicts:
            return "unknown"
        return "safe"

    @property
    def leaky(self) -> bool:
        return any(report.leaky for report in self.functions)

    def coverage(self) -> dict[str, int]:
        """Module-level coverage accounting (sums the per-function
        :meth:`FunctionReport.coverage` sections)."""
        return {
            "examined": self.candidates,
            "pruned": self.pruned,
            "skipped_by_budget": self.skipped,
            "undecided": self.undecided,
        }

    def summary(self) -> str:
        totals = self.totals()
        rendered = "/".join(
            f"{totals[k]}{k.value}"
            for k in (TransmitterClass.DATA, TransmitterClass.CONTROL,
                      TransmitterClass.UNIVERSAL_DATA,
                      TransmitterClass.UNIVERSAL_CONTROL)
        )
        return (f"{self.name} [{self.engine}] {len(self.functions)} functions, "
                f"{rendered}, {self.elapsed:.2f}s")
