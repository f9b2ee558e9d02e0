"""Post-processing of crypto-library analysis results (§6.2.2).

After detection, the paper's workflow inspects flagged universal
transmitters to filter false positives and low-priority cases:

1. **Misclassified addr.data.rf.addr patterns**: a transmitter that
   leaks a pointer value which it read (via rf) from a speculative
   write is only universal if the data's source and destination access
   different addresses; conservatively these are downgraded to DTs.
2. **Low-priority**: transmitters requiring more than one read of
   speculatively-stale data.
3. **Worst-case alias analysis counts**: only universal transmitters of
   the restricted form ``addr_gep.(addr|ctrl)`` (no ``data.rf`` hops)
   survive when every ``data.rf`` edge is assumed erroneous — the
   parenthesized counts of Table 2.  These are much more likely to be
   true positives.
4. **Secrecy labels** (§7's suggested extension): when the caller
   declares which symbols hold secrets, witnesses whose access cannot
   reach a secret are filtered as benign.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.clou.report import ClouWitness, FunctionReport
from repro.lcm.taxonomy import TransmitterClass

_UNIVERSAL = (TransmitterClass.UNIVERSAL_DATA,
              TransmitterClass.UNIVERSAL_CONTROL)


@dataclass
class PostProcessResult:
    """Witnesses partitioned by the §6.2.2 filters."""

    kept: list[ClouWitness] = field(default_factory=list)
    downgraded: list[ClouWitness] = field(default_factory=list)
    low_priority: list[ClouWitness] = field(default_factory=list)
    filtered_benign: list[ClouWitness] = field(default_factory=list)

    def worst_case_alias_count(self, klass: TransmitterClass) -> int:
        """Table 2's parenthesized statistic: universal transmitters
        surviving worst-case alias analysis (zero data.rf hops)."""
        return sum(
            1 for w in self.kept
            if w.klass is klass and w.store_hops == 0
        )

    def summary(self) -> str:
        return (
            f"{len(self.kept)} kept, {len(self.downgraded)} downgraded, "
            f"{len(self.low_priority)} low-priority, "
            f"{len(self.filtered_benign)} filtered as benign"
        )


def _mentions_secret(witness: ClouWitness, secret_symbols: tuple[str, ...]) -> bool:
    refs = [witness.transmit, witness.access, witness.index]
    haystacks = [
        f"{ref.text} {ref.provenance}" for ref in refs if ref is not None
    ]
    return any(
        symbol in haystack
        for symbol in secret_symbols for haystack in haystacks
    )


@dataclass(frozen=True)
class GadgetClass:
    """An equivalence class of witnesses sharing one culprit speculative
    access (§6.2.3): mitigating that access kills the whole class."""

    culprit: str           # provenance/text of the shared access
    representative: ClouWitness
    size: int

    def __str__(self) -> str:
        return f"gadget class ({self.size} witnesses) via {self.culprit}"


def group_witnesses(witnesses: list[ClouWitness]) -> list[GadgetClass]:
    """Group witnesses into §6.2.3 equivalence classes.

    The paper: "many transmitters uncovered by Clou can be grouped into
    equivalence classes, where each class of transmitters can be
    mitigated by preventing a single culprit speculative access.  We
    report one gadget per equivalence class."  The culprit key is the
    access instruction (falling back to the speculation primitive for
    access-free witnesses).
    """
    by_culprit: dict[str, list[ClouWitness]] = {}
    for witness in witnesses:
        if witness.access is not None:
            key = f"{witness.access.provenance or witness.access.text}"
        else:
            key = f"primitive:{witness.primitive.text}"
        by_culprit.setdefault(key, []).append(witness)
    classes = []
    for culprit, members in by_culprit.items():
        # Represent the class by its most severe member.
        representative = max(members, key=lambda w: w.klass.severity)
        classes.append(GadgetClass(culprit, representative, len(members)))
    classes.sort(key=lambda c: (-c.representative.klass.severity, -c.size))
    return classes


def postprocess(report: FunctionReport,
                secret_symbols: tuple[str, ...] = (),
                max_stale_reads: int = 1) -> PostProcessResult:
    """Apply the §6.2.2 filters to one function report.

    The input report is not modified; callers use the result's
    partitions (the paper applied these filters manually for its
    qualitative analysis and notes an automatic mechanism is possible —
    this is that mechanism).
    """
    result = PostProcessResult()
    for witness in report.transmitters():
        if secret_symbols and not _mentions_secret(witness, secret_symbols):
            result.filtered_benign.append(witness)
            continue
        if witness.klass in _UNIVERSAL:
            # Case 1: universal chains that route the secret through a
            # speculative write and re-load it as a pointer — the
            # addr.data.rf.addr special case — are conservatively
            # downgraded (they are only universal when source and
            # destination addresses differ).
            pointer_reload = (
                witness.store_hops >= 1
                and witness.access is not None
                and "*" in witness.access.text.split("load")[-1]
            )
            if pointer_reload:
                result.downgraded.append(replace(
                    witness,
                    klass=TransmitterClass.DATA
                    if witness.klass is TransmitterClass.UNIVERSAL_DATA
                    else TransmitterClass.CONTROL,
                ))
                continue
            # Case 2: more than one stale read required.
            if witness.store_hops > max_stale_reads:
                result.low_priority.append(witness)
                continue
        result.kept.append(witness)
    return result
