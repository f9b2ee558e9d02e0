"""The differential oracle matrix.

Each oracle checks one *agreement between independent semantics* on a
generated input, and returns ``None`` (pass) or a human-readable failure
message.  Raising :class:`OracleSkip` means the input fell outside the
oracle's tractable/meaningful domain (e.g. the operational state space
blew up) — the runner counts skips separately from passes.

==================  =======  ==============================================
oracle              input    agreement checked
==================  =======  ==============================================
litmus-roundtrip    litmus   render -> parse -> render is the identity
mcm-diff            litmus   axiomatic TSO outcome set == operational TSO
sc-tso              litmus   SC outcomes are a subset of TSO outcomes
interp-interval     C        every concrete temp value the interpreter
                             computes lies in the interval analysis' range
serialize-roundtrip C        stable report JSON -> from_dict -> JSON is
                             byte-identical
jobs-invariance     C        --jobs 2 and serial sessions emit identical
                             stable JSON
realizability       C        the S-AEG's bitset realizability check agrees
                             with a path search from the entry
degradation         C        a budget-faulted run only degrades verdicts
                             toward unknown (never flips leak<->safe) and
                             confirms no witness the fault-free run lacks
contract            C        relational contract conformance: inputs with
                             equal ctraces have equal htraces on every
                             hardware policy the contract claims to cover
==================  =======  ==============================================

The Clou-facing oracles run their analyses through
:class:`repro.sched.ClouSession`, so they also exercise the scheduler
and the report assembly path end to end.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

from repro.errors import ReproError
from repro.fuzz.gen_c import GeneratedC
from repro.fuzz.gen_litmus import GeneratedLitmus, render_program
from repro.sched import AnalysisRequest

__all__ = ["ORACLES", "Oracle", "OracleSkip", "oracles_for",
           "realizable_by_search"]


class OracleSkip(Exception):
    """The input is outside this oracle's domain; not a pass, not a fail."""


@dataclass(frozen=True)
class Oracle:
    """One differential check.

    ``period`` rate-limits expensive oracles: the runner only applies
    the oracle to every ``period``-th matching input (deterministic in
    the iteration number, so runs are reproducible).  ``profile``
    restricts the oracle to inputs generated under that profile (``""``
    matches any); ``sidecar`` recomputes structured evidence — e.g.
    both traces of a conformance counterexample — on the *shrunk*
    input, for the corpus reproducer's JSON sidecar.
    """

    name: str
    kind: str                                    # 'c' | 'litmus'
    check: Callable[[object], str | None]
    period: int = 1
    description: str = ""
    profile: str = ""                            # '' | a gen_c profile
    sidecar: Callable[[object], dict | None] | None = None


# ----------------------------------------------------------------------
# Litmus-side oracles
# ----------------------------------------------------------------------


def _litmus_roundtrip(generated: GeneratedLitmus) -> str | None:
    from repro.litmus import parse_program

    reparsed = parse_program(generated.source, name=generated.program.name)
    if reparsed != generated.program:
        return "parse(render(program)) is not the original program"
    rerendered = render_program(reparsed)
    if rerendered != generated.source:
        return "render is not stable under a parse round-trip"
    return None


def _mcm_diff(generated: GeneratedLitmus) -> str | None:
    from repro.errors import ModelError
    from repro.mcm import TSO
    from repro.mcm.operational import operational_outcomes
    from repro.mcm.outcomes import outcomes

    try:
        axiomatic = outcomes(generated.program, TSO)
        operational = operational_outcomes(generated.program)
    except ModelError as error:
        raise OracleSkip(str(error))
    if axiomatic == operational:
        return None
    only_axiomatic = sorted(map(sorted, axiomatic - operational))
    only_operational = sorted(map(sorted, operational - axiomatic))
    return ("axiomatic and operational TSO disagree: "
            f"axiomatic-only={only_axiomatic!r} "
            f"operational-only={only_operational!r}")


def _sc_subset_tso(generated: GeneratedLitmus) -> str | None:
    from repro.errors import ModelError
    from repro.mcm import SC, TSO
    from repro.mcm.outcomes import outcomes

    try:
        sc = outcomes(generated.program, SC)
        tso = outcomes(generated.program, TSO)
    except ModelError as error:
        raise OracleSkip(str(error))
    extra = sc - tso
    if extra:
        return (f"SC allows {len(extra)} outcome(s) TSO forbids: "
                f"{sorted(map(sorted, extra))!r}")
    return None


# ----------------------------------------------------------------------
# C-side oracles
# ----------------------------------------------------------------------


def _arg_vectors(generated: GeneratedC, count: int = 3) -> list[list[int]]:
    rng = random.Random(repr(("fuzz-args", generated.seed)))
    vectors = [[0] * len(generated.params),
               [(1 << 64) - 1] * len(generated.params)]
    while len(vectors) < count + 2:
        vectors.append([rng.randrange(1 << 64)
                        for _ in generated.params])
    return vectors


def _interp_interval(generated: GeneratedC) -> str | None:
    from repro.analysis.interval import IntervalAnalysis
    from repro.ir.interp import InterpError, Interpreter
    from repro.ir.types import IntType
    from repro.minic import compile_c

    if not generated.interpretable:
        raise OracleSkip("analysis-profile program (not interpretable)")
    try:
        module = compile_c(generated.source, name="fuzz")
    except ReproError as error:
        return f"generated program does not compile: {error}"
    entry = module.functions.get(generated.entry)
    if entry is None or not entry.blocks:
        # Only reachable on shrunk candidates that dropped the entry.
        raise OracleSkip(f"entry function {generated.entry!r} missing")

    analyses: dict[int, IntervalAnalysis] = {}
    for function in module.functions.values():
        if not function.blocks:
            continue
        analysis = IntervalAnalysis(function)
        for block in function.blocks:
            for ins in block.instructions:
                analyses[id(ins)] = analysis

    violations: list[str] = []

    def trace(ins, value) -> None:
        if len(violations) >= 5:
            return
        analysis = analyses.get(id(ins))
        result = getattr(ins, "result", None)
        if analysis is None or result is None:
            return  # stores trace their value but define no temp
        if not isinstance(result.type, IntType):
            return
        interval = analysis.range_of(ins.result)
        low_ok = interval.lo is None or value >= interval.lo
        high_ok = interval.hi is None or value <= interval.hi
        if not (low_ok and high_ok):
            violations.append(
                f"%{ins.result.name} = {value} outside inferred "
                f"{interval} (instruction: {ins!r})")

    for args in _arg_vectors(generated):
        try:
            Interpreter(module, trace=trace).call(generated.entry, args)
        except InterpError as error:
            return (f"interpreter fault on args {args!r}: {error} "
                    "(generated programs must execute cleanly)")
        if violations:
            return (f"concrete execution escapes inferred ranges on args "
                    f"{args!r}: " + "; ".join(violations))
    return None


def _analysis_session(jobs: int = 1):
    from repro.clou import ClouConfig
    from repro.sched import ClouSession

    config = ClouConfig(timeout_seconds=10.0)
    return ClouSession(config=config, jobs=jobs, cache=False)


def _fuzz_engine(generated: GeneratedC) -> str:
    """The engine this iteration's analysis oracles run.

    Cycles deterministically through the registry by seed, so one fuzz
    campaign exercises the whole engine matrix (and each reproducer
    replays against the same engine that failed).
    """
    from repro.clou.engine import engine_names

    names = engine_names()
    return names[generated.seed % len(names)]


def _serialize_roundtrip(generated: GeneratedC) -> str | None:
    from repro.clou.serialize import module_report_from_dict, to_json

    try:
        report = _analysis_session().analyze(AnalysisRequest.analyze(
            generated.source, engine=_fuzz_engine(generated), name="fuzz"))
    except ReproError as error:
        return f"generated program does not analyze: {error}"
    first = to_json(report, stable=True)
    restored = module_report_from_dict(json.loads(first))
    second = to_json(restored, stable=True)
    if first != second:
        return ("stable JSON is not a fixpoint of "
                "module_report_from_dict ∘ json.loads")
    return None


def _jobs_invariance(generated: GeneratedC) -> str | None:
    from repro.clou.serialize import to_json

    engine = _fuzz_engine(generated)
    try:
        serial = _analysis_session(jobs=1).analyze(AnalysisRequest.analyze(
            generated.source, engine=engine, name="fuzz"))
        parallel = _analysis_session(jobs=2).analyze(AnalysisRequest.analyze(
            generated.source, engine=engine, name="fuzz"))
    except ReproError as error:
        return f"generated program does not analyze: {error}"
    serial_json = to_json(serial, stable=True)
    parallel_json = to_json(parallel, stable=True)
    if serial_json != parallel_json:
        return "--jobs 2 report differs from the serial report"
    return None


def _degradation(generated: GeneratedC) -> str | None:
    """Three-valued soundness under injected search-budget faults.

    The fault-free verdict lattice is leak ⊐ unknown ⊐ safe; a degraded
    run may move any function's verdict *toward* unknown but must never
    flip leak<->safe, and every witness it still *confirms* must also
    exist in the fault-free run.  Only cooperative ``budget`` faults are
    injected — crash/hang faults are suicidal in a serial session (the
    scheduler-level recovery for those is exercised by
    ``benchmarks/fault_sweep.py`` and the tests/sched suite).
    """
    from repro.clou import ClouConfig
    from repro.clou.serialize import witness_dict
    from repro.sched import ClouSession

    engine = _fuzz_engine(generated)

    def analyze(config):
        return ClouSession(config=config, jobs=1, cache=False).analyze(AnalysisRequest.analyze(
            generated.source, engine=engine, name="fuzz"))

    try:
        baseline = analyze(ClouConfig(timeout_seconds=10.0))
        spec = (f"seed={generated.seed & 0xFFFF};"
                "budget@engine.candidate%0.4")
        faulted = analyze(ClouConfig(timeout_seconds=10.0, fault_spec=spec))
    except ReproError as error:
        return f"generated program does not analyze: {error}"

    def key(witness) -> str:
        data = {k: v for k, v in witness_dict(witness).items()
                if k != "confirmed"}
        return json.dumps(data, sort_keys=True)

    reference = {report.function: report for report in baseline.functions}
    for report in faulted.functions:
        clean = reference.get(report.function)
        if clean is None:
            return f"{report.function}: missing from the fault-free run"
        if clean.verdict == "leak" and report.verdict == "safe":
            return (f"{report.function}: fault-free verdict is leak but "
                    "the budget-faulted run reports safe")
        if clean.verdict == "safe" and report.verdict == "leak":
            return (f"{report.function}: fault-free verdict is safe but "
                    "the budget-faulted run reports leak")
        allowed = {key(witness) for witness in clean.transmitters()}
        for witness in report.transmitters():
            if witness.confirmed and key(witness) not in allowed:
                return (f"{report.function}: the budget-faulted run "
                        f"confirmed a {witness.klass.value} witness the "
                        "fault-free run never found")
    return None


def _conformance_results(generated: GeneratedC):
    """Conformance results for every (hardware, contract) pair the
    refinement relation predicts *conform* — a violation on such a
    pair is a real bug in an LCM, a policy, or the trace extractors.
    Predicted-violate pairs (unmodeled hardware) are the matrix's
    business (``clou fuzz --contract-matrix``), not this oracle's.
    """
    from repro.fuzz.conformance import (
        CONTRACT_LCMS, HARDWARE_POLICIES, ConformanceHarness,
        check_conformance, predicted_verdict)
    from repro.fuzz.gen_c import conformance_vectors
    from repro.fuzz.lowering import LoweringError

    if generated.profile != "conformance":
        raise OracleSkip("not a conformance-profile program")
    try:
        harness = ConformanceHarness(generated)
    except (ReproError, LoweringError) as error:
        raise OracleSkip(f"outside the lowerable profile: {error}")
    families = conformance_vectors(generated)
    for policy_name in HARDWARE_POLICIES:
        for contract_name, spec in CONTRACT_LCMS.items():
            verdict = predicted_verdict(HARDWARE_POLICIES[policy_name](),
                                        spec.policy())
            if verdict != "conform":
                continue
            yield check_conformance(
                generated, policy_name=policy_name,
                contract_name=contract_name, families=families,
                harness=harness, max_violations=1)


def _contract(generated: GeneratedC) -> str | None:
    pairs = 0
    for result in _conformance_results(generated):
        pairs += result.pairs_checked
        if result.violations:
            violation = result.violations[0]
            return (f"hardware '{result.policy}' violates contract "
                    f"'{result.contract}' on a ctrace-equal input pair "
                    f"{list(violation.args_a)} / {list(violation.args_b)}: "
                    f"{violation.detail}")
    if pairs == 0:
        raise OracleSkip("no ctrace-equal input pair on any policy")
    return None


def _contract_sidecar(generated: GeneratedC) -> dict | None:
    """Both traces of the (shrunk) counterexample, plus the contract's
    static transmitter classification of the observed points."""
    try:
        for result in _conformance_results(generated):
            if result.violations:
                return {
                    "violation": result.violations[0].to_dict(),
                    "observation_points": {
                        str(point): reports
                        for point, reports
                        in sorted(result.observation_points.items())},
                }
    except OracleSkip:
        return None
    return None


def realizable_by_search(aeg, nodes) -> bool:
    """Reference for :meth:`repro.clou.aeg.SAEG.realizable`: does one
    path from the entry pass through every queried block?  A search
    along the A-CFG's successor edges over (block, queried blocks not
    yet visited) states with an explicit stack; it shares nothing with
    the chain check's reachability masks and topological positions."""
    successors = {block.label: block.successors()
                  for block in aeg.function.blocks}
    entry = aeg.function.entry.label
    start = (entry, frozenset(node.block for node in nodes) - {entry})
    stack, seen = [start], {start}
    while stack:
        label, pending = stack.pop()
        if not pending:
            return True
        for successor in successors[label]:
            state = (successor, pending - {successor})
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return False


def _realizability(generated: GeneratedC) -> str | None:
    from repro.clou import SAEG, build_acfg
    from repro.minic import compile_c

    try:
        module = compile_c(generated.source, name="fuzz")
    except ReproError as error:
        return f"generated program does not compile: {error}"
    for function in module.public_functions():
        if not function.blocks:
            continue
        try:
            aeg = SAEG(build_acfg(module, function.name).function)
        except ReproError as error:
            raise OracleSkip(str(error))
        # One event per block, up to 8 blocks spread over the function:
        # the first events all sit on the entry's straight-line prefix,
        # where every query is realizable.
        heads: dict[str, object] = {}
        for node in aeg.memory_nodes() + aeg.branches():
            heads.setdefault(node.block, node)
        spread = list(heads.values())[::max(1, len(heads) // 8)][:8]
        queries = [[node] for node in spread]
        queries += [[a, b]
                    for i, a in enumerate(spread)
                    for b in spread[i + 1:]]
        for nodes in queries:
            chain = aeg.realizable(nodes)
            search = realizable_by_search(aeg, nodes)
            if chain != search:
                blocks = sorted({n.block for n in nodes})
                return (f"{function.name}: realizable({blocks}) = "
                        f"{chain} by the chain check but {search} by "
                        "the path search")
    return None


ORACLES: dict[str, Oracle] = {
    oracle.name: oracle
    for oracle in [
        Oracle("litmus-roundtrip", "litmus", _litmus_roundtrip,
               description="litmus render/parse round-trip identity"),
        Oracle("mcm-diff", "litmus", _mcm_diff,
               description="axiomatic vs. operational TSO outcome sets"),
        Oracle("sc-tso", "litmus", _sc_subset_tso,
               description="SC outcomes are a subset of TSO outcomes"),
        Oracle("interp-interval", "c", _interp_interval,
               description="concrete interpreter values stay within "
                           "interval-analysis ranges"),
        Oracle("serialize-roundtrip", "c", _serialize_roundtrip, period=2,
               description="stable report JSON round-trips byte-exactly"),
        Oracle("jobs-invariance", "c", _jobs_invariance, period=40,
               description="--jobs 2 and serial reports are identical"),
        Oracle("degradation", "c", _degradation, period=3,
               description="budget-faulted runs only degrade verdicts "
                           "toward unknown, never flip leak<->safe"),
        Oracle("contract", "c", _contract, profile="conformance",
               sidecar=_contract_sidecar,
               description="relational conformance: ctrace-equal input "
                           "pairs stay htrace-equal on every hardware "
                           "policy the contract covers"),
        Oracle("realizability", "c", _realizability, period=3,
               description="the S-AEG's realizability chain check agrees "
                           "with a path search from the entry"),
    ]
}


def oracles_for(names: tuple[str, ...] | None = None) -> list[Oracle]:
    """The selected oracles (all of them by default); unknown names
    raise ``ValueError`` with the available choices."""
    if not names:
        return list(ORACLES.values())
    missing = [name for name in names if name not in ORACLES]
    if missing:
        raise ValueError(f"unknown oracle(s) {missing!r}; choose from "
                         f"{sorted(ORACLES)}")
    return [ORACLES[name] for name in names]
