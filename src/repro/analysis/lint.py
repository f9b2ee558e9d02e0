"""Sequential constant-time lint: findings, report, and renderers.

The lint is the *sequential* end of the contract spectrum: it flags
code that already violates constant-time before any speculation is
modeled, using only the dataflow framework — no S-AEG, no windowed
search, no solver — so it runs in milliseconds where the engines take
seconds.  Severities reuse the Table 1 taxonomy:

=====  ================================================================
AT     informational: an access *to* a secret-labeled object with a
       public address (the object's bytes enter the dataflow here)
CT     branch on secret data
DT     load/store whose address depends on secret data
UCT    branch on data fetched through a secret-derived address
UDT    load/store addressed by data fetched through a secret-derived
       address — the Listing 1 / sigalgs double-fetch shape
=====  ================================================================

A clean report at CT-and-above is the paper's sequential constant-time
baseline; the speculative engines then check what the hardware contract
adds on top.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.ir import Branch, Load, Module, Store
from repro.lcm.taxonomy import TransmitterClass

from .taint import SECRET, SecretTaintAnalysis, TRANSITIVE


@dataclass(frozen=True)
class LintFinding:
    """One constant-time violation (or AT-level informational note)."""

    function: str
    block: str
    index: int
    severity: TransmitterClass
    kind: str    # 'secret-branch' | 'secret-indexed-load' |
                 # 'secret-indexed-store' | 'secret-object-access'
    text: str    # rendered instruction
    detail: str = ""

    @property
    def location(self) -> str:
        return f"{self.function}/{self.block}:{self.index}"

    def __str__(self) -> str:
        return (f"[{self.severity.value}] {self.location}: {self.kind} — "
                f"{self.text}" + (f" ({self.detail})" if self.detail else ""))


@dataclass
class LintReport:
    module_name: str
    functions: list[str]
    findings: list[LintFinding]

    def counts(self) -> dict[str, int]:
        out = {klass.value: 0 for klass in TransmitterClass}
        for finding in self.findings:
            out[finding.severity.value] += 1
        return out

    def worst(self) -> TransmitterClass | None:
        if not self.findings:
            return None
        return max((f.severity for f in self.findings),
                   key=lambda klass: klass.severity)

    def violations(self) -> list[LintFinding]:
        """Findings at CT or above — the actual constant-time breaks."""
        return [f for f in self.findings if f.severity.severity >= 1]

    def summary(self) -> str:
        counts = self.counts()
        rendered = " ".join(f"{name}={counts[name]}"
                            for name in ("AT", "CT", "DT", "UCT", "UDT"))
        verdict = "constant-time" if not self.violations() else "NOT constant-time"
        return (f"lint {self.module_name or '<module>'}: "
                f"{len(self.functions)} function(s), {rendered} — {verdict}")

    def describe(self) -> str:
        lines = [self.summary()]
        lines.extend(f"  {finding}" for finding in self.findings)
        return "\n".join(lines)


def lint_finding_dict(finding: LintFinding) -> dict:
    return {
        "function": finding.function,
        "block": finding.block,
        "index": finding.index,
        "severity": finding.severity.value,
        "kind": finding.kind,
        "text": finding.text,
        "detail": finding.detail,
    }


def lint_report_dict(report: LintReport) -> dict:
    return {
        "module": report.module_name,
        "functions": sorted(report.functions),
        "counts": report.counts(),
        "constant_time": not report.violations(),
        "findings": [lint_finding_dict(f) for f in report.findings],
    }


def lint_report_json(report: LintReport, indent: int = 2) -> str:
    """Byte-stable JSON (no timing fields; findings pre-sorted)."""
    return json.dumps(lint_report_dict(report), indent=indent)


def lint_finding_from_dict(data: dict) -> LintFinding:
    return LintFinding(
        function=data["function"],
        block=data["block"],
        index=data["index"],
        severity=TransmitterClass(data["severity"]),
        kind=data["kind"],
        text=data["text"],
        detail=data.get("detail", ""),
    )


def lint_report_from_dict(data: dict) -> LintReport:
    """Inverse of :func:`lint_report_dict` (the scheduler's result cache
    stores lint reports as JSON).  Function order is the serialized
    (sorted) order; findings round-trip exactly."""
    return LintReport(
        module_name=data["module"],
        functions=list(data.get("functions", [])),
        findings=[lint_finding_from_dict(f)
                  for f in data.get("findings", [])],
    )


def _sort_key(finding: LintFinding) -> tuple:
    return (finding.function, finding.block, finding.index,
            -finding.severity.severity)


def lint_module(module: Module, secrets: tuple[str, ...] = (),
                public: tuple[str, ...] = (),
                default_secret_params: bool = True) -> LintReport:
    """Run the interprocedural lint over every defined function."""
    taint = SecretTaintAnalysis(module, secrets=secrets, public=public,
                                default_secret_params=default_secret_params)
    findings: list[LintFinding] = []
    for function in module.functions.values():
        if not function.blocks:
            continue
        for label, index, ins, state, problem, alias in taint.walk(function):
            if isinstance(ins, Branch):
                level = problem.value_level(ins.cond, state)
                if level >= TRANSITIVE:
                    findings.append(LintFinding(
                        function.name, label, index,
                        TransmitterClass.UNIVERSAL_CONTROL, "secret-branch",
                        str(ins),
                        "condition fetched through a secret-derived address"))
                elif level >= SECRET:
                    findings.append(LintFinding(
                        function.name, label, index,
                        TransmitterClass.CONTROL, "secret-branch", str(ins),
                        "condition depends on secret data"))
            elif isinstance(ins, (Load, Store)):
                kind = ("secret-indexed-load" if isinstance(ins, Load)
                        else "secret-indexed-store")
                level = problem.value_level(ins.pointer, state)
                if level >= TRANSITIVE:
                    findings.append(LintFinding(
                        function.name, label, index,
                        TransmitterClass.UNIVERSAL_DATA, kind, str(ins),
                        "address derived from secret-addressed fetch"))
                elif level >= SECRET:
                    findings.append(LintFinding(
                        function.name, label, index,
                        TransmitterClass.DATA, kind, str(ins),
                        "address depends on secret data"))
                else:
                    prov = alias.value_provenance(ins.pointer)
                    if taint.is_labeled(function, prov):
                        findings.append(LintFinding(
                            function.name, label, index,
                            TransmitterClass.ADDRESS, "secret-object-access",
                            str(ins), f"touches labeled object {prov}"))
    findings.sort(key=_sort_key)
    return LintReport(
        module_name=module.name,
        functions=sorted(f.name for f in module.functions.values()
                         if f.blocks),
        findings=findings,
    )


def lint_source(source: str, secrets: tuple[str, ...] = (),
                public: tuple[str, ...] = (), name: str = "",
                default_secret_params: bool = True) -> LintReport:
    """Compile mini-C ``source`` and lint the resulting module."""
    from repro.minic import compile_c

    module = compile_c(source, name=name)
    return lint_module(module, secrets=secrets, public=public,
                       default_secret_params=default_secret_params)
