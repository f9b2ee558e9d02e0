"""JSON (de)serialization of Clou reports (for CI pipelines, tooling,
and the scheduler's on-disk result cache).

Output ordering is deterministic: transmitters come pre-sorted by
(block, index, severity) from :meth:`FunctionReport.transmitters`, and
function entries are sorted by name.  With ``stable=True`` the wall-time
fields are omitted as well, making the JSON byte-stable across runs —
what a CI pipeline wants to diff (the ``clou`` CLI uses this mode).

The ``*_from_dict`` functions invert their ``*_dict`` counterparts.
Round-tripping is witness-exact up to deduplication: serialization
stores :meth:`FunctionReport.transmitters` (one witness per distinct
(transmit, class)), so a reconstructed report has those as its witness
list — every derived quantity (``counts``, ``leaky``, ``transmitters``,
the stable JSON itself) is unchanged, which is what makes cached results
byte-identical to fresh ones.
"""

from __future__ import annotations

import json
from typing import Any

from repro.clou.report import ClouWitness, FunctionReport, ModuleReport, \
    NodeRef, class_counts
from repro.lcm.taxonomy import TransmitterClass


def _noderef_dict(ref: NodeRef | None) -> dict[str, Any] | None:
    if ref is None:
        return None
    return {
        "block": ref.block,
        "index": ref.index,
        "text": ref.text,
        "provenance": ref.provenance,
    }


def witness_dict(witness: ClouWitness) -> dict[str, Any]:
    return {
        "engine": witness.engine,
        "class": witness.klass.value,
        "transmit": _noderef_dict(witness.transmit),
        "primitive": _noderef_dict(witness.primitive),
        "access": _noderef_dict(witness.access),
        "index": _noderef_dict(witness.index),
        "window_start": _noderef_dict(witness.window_start),
        "transient_transmit": witness.transient_transmit,
        "transient_access": witness.transient_access,
        "store_hops": witness.store_hops,
        "confirmed": witness.confirmed,
    }


def function_report_dict(report: FunctionReport, stable: bool = False,
                         transmitters: list[ClouWitness] | None = None
                         ) -> dict[str, Any]:
    """``transmitters`` is ``report.transmitters()`` when the caller
    already holds it; the counts and the list both derive from it."""
    if transmitters is None:
        transmitters = report.transmitters()
    out: dict[str, Any] = {
        "function": report.function,
        "engine": report.engine,
        "aeg_size": report.aeg_size,
        "timed_out": report.timed_out,
        "error": report.error,
        "verdict": report.verdict,
        "candidates": report.candidates,
        "pruned": report.pruned,
        "coverage": report.coverage(),
        "counts": {
            klass.value: count
            for klass, count in class_counts(transmitters).items()
        },
        "transmitters": [witness_dict(w) for w in transmitters],
    }
    if not stable:
        out["elapsed_seconds"] = report.elapsed
    return out


def module_report_dict(report: ModuleReport,
                       stable: bool = False) -> dict[str, Any]:
    functions = sorted(report.functions, key=lambda f: f.function)
    transmitters = [f.transmitters() for f in functions]
    out = _module_fields(
        report, class_counts(w for listed in transmitters for w in listed),
        [function_report_dict(f, stable=stable, transmitters=listed)
         for f, listed in zip(functions, transmitters)])
    if not stable:
        out["elapsed_seconds"] = report.elapsed
    return out


def _module_fields(report: ModuleReport, totals, functions) -> dict[str, Any]:
    """The stable module dict around its ``functions`` entries."""
    out: dict[str, Any] = {
        "name": report.name,
        "engine": report.engine,
        "leaky": report.leaky,
        "verdict": report.verdict,
        "complete": report.complete,
        "totals": {klass.value: count for klass, count in totals.items()},
        "candidates": report.candidates,
        "pruned": report.pruned,
        "coverage": report.coverage(),
        "functions": functions,
    }
    if report.config is not None:
        out["config"] = report.config.to_dict()
    return out


def compact_json(value: Any) -> bytes:
    """``value`` as one line of compact JSON in UTF-8 (the daemon's wire
    form)."""
    return json.dumps(value, ensure_ascii=False,
                      separators=(",", ":")).encode("utf-8")


def json_object(fields) -> bytes:
    """The compact JSON object of ``(key, compact JSON)`` pairs: what
    :func:`compact_json` writes for the dict of the decoded values."""
    parts = []
    for key, text in fields:
        parts += (b",", compact_json(key), b":", text)
    parts[0] = b"{"  # for the comma before the first key
    parts.append(b"}")
    return b"".join(parts)


def function_entry_json(report: FunctionReport
                        ) -> tuple[bytes, dict[TransmitterClass, int]]:
    """A function's stable entry as compact JSON, and its class counts
    (what the module ``totals`` sum)."""
    transmitters = report.transmitters()
    return (compact_json(function_report_dict(report, stable=True,
                                              transmitters=transmitters)),
            class_counts(transmitters))


def module_report_json(report: ModuleReport, entries) -> bytes:
    """``compact_json(module_report_dict(report, stable=True))`` from each
    function's :func:`function_entry_json` pair, given in
    ``report.functions`` order, so a caller that keeps the pairs encodes
    each function once."""
    ordered = sorted(zip(report.functions, entries),
                     key=lambda pair: pair[0].function)
    totals = {klass: sum(counts[klass] for _, (_, counts) in ordered)
              for klass in TransmitterClass}
    functions = b"[" + b",".join(text for _, (text, _) in ordered) + b"]"
    return json_object(
        (key, functions if key == "functions" else compact_json(value))
        for key, value in _module_fields(report, totals, None).items())


def repair_result_dict(result, stable: bool = True) -> dict[str, Any]:
    """Serialize a :class:`repro.clou.repair.RepairResult` — the repair
    arm of the daemon wire protocol (``AnalysisResult.to_dict``)."""
    return {
        "function": result.function,
        "engine": result.engine,
        "fences": [[block, index] for block, index in result.fences],
        "before": (function_report_dict(result.before, stable=stable)
                   if result.before is not None else None),
        "after": (function_report_dict(result.after, stable=stable)
                  if result.after is not None else None),
        "error": result.error,
    }


def repair_result_from_dict(data: dict[str, Any]):
    from repro.clou.repair import RepairResult

    return RepairResult(
        function=data["function"],
        engine=data["engine"],
        fences=[(block, index) for block, index in data.get("fences", [])],
        before=(function_report_from_dict(data["before"])
                if data.get("before") is not None else None),
        after=(function_report_from_dict(data["after"])
               if data.get("after") is not None else None),
        error=data.get("error"),
    )


def to_json(report: ModuleReport, indent: int = 2,
            stable: bool = False) -> str:
    return json.dumps(module_report_dict(report, stable=stable),
                      indent=indent, ensure_ascii=False, sort_keys=stable)


# ----------------------------------------------------------------------
# Deserialization (the result cache's read path)
# ----------------------------------------------------------------------


def _noderef_from_dict(data: dict[str, Any] | None,
                       shared: dict | None = None) -> NodeRef | None:
    """``shared`` maps each field tuple to the one :class:`NodeRef`
    decoded for it, so equal references in a report share one object."""
    if data is None:
        return None
    key = (data["block"], data["index"], data["text"],
           data.get("provenance", ""))
    if shared is None:
        return NodeRef(*key)
    ref = shared.get(key)
    if ref is None:
        ref = shared[key] = NodeRef(*key)
    return ref


def witness_from_dict(data: dict[str, Any],
                      shared: dict | None = None) -> ClouWitness:
    return ClouWitness(
        engine=data["engine"],
        klass=TransmitterClass(data["class"]),
        transmit=_noderef_from_dict(data["transmit"], shared),
        primitive=_noderef_from_dict(data["primitive"], shared),
        access=_noderef_from_dict(data.get("access"), shared),
        index=_noderef_from_dict(data.get("index"), shared),
        window_start=_noderef_from_dict(data.get("window_start"), shared),
        transient_transmit=data.get("transient_transmit", True),
        transient_access=data.get("transient_access", False),
        store_hops=data.get("store_hops", 0),
        confirmed=data.get("confirmed", True),
    )


def function_report_from_dict(data: dict[str, Any]) -> FunctionReport:
    coverage = data.get("coverage", {})
    shared: dict = {}
    return FunctionReport(
        function=data["function"],
        engine=data["engine"],
        witnesses=[witness_from_dict(w, shared)
                   for w in data.get("transmitters", [])],
        aeg_size=data.get("aeg_size", 0),
        elapsed=data.get("elapsed_seconds", 0.0),
        timed_out=data.get("timed_out", False),
        error=data.get("error"),
        candidates=data.get("candidates", 0),
        pruned=data.get("pruned", 0),
        skipped=coverage.get("skipped_by_budget", 0),
        undecided=coverage.get("undecided", 0),
    )


def module_report_from_dict(data: dict[str, Any]) -> ModuleReport:
    from repro.clou.engine import ClouConfig

    config = data.get("config")
    return ModuleReport(
        name=data["name"],
        engine=data["engine"],
        functions=[function_report_from_dict(f)
                   for f in data.get("functions", [])],
        config=ClouConfig.from_dict(config) if config is not None else None,
    )
