"""Table 2, litmus rows: Clou vs. BH on the 36 Spectre benchmarks.

Each benchmark regenerates one (suite, tool) cell of Table 2 and asserts
the paper's shape invariants:

- Clou finds all intended leakage per suite and classifies it
  (DT/CT/UDT/UCT);
- BH reports a flat, unclassified bug count;
- suites that must exhibit universal transmitters do.
"""

import pytest

from repro.baselines.bh import bh_analyze_source
from repro.bench.suites import litmus_fwd, litmus_new, litmus_pht, litmus_stl
from repro.bench.table2 import CLOU_TABLE2_CONFIG, _bh_tool_row, _clou_tool_row
from repro.sched import AnalysisRequest, ClouSession
from repro.lcm.taxonomy import TransmitterClass as TC

_SESSION = ClouSession(jobs=1, cache=False)


def _analyze(source, **kwargs):
    return _SESSION.analyze(AnalysisRequest.analyze(source, **kwargs))


SUITES = {
    "pht": (litmus_pht, "pht"),
    "stl": (litmus_stl, "stl"),
    "fwd": (litmus_fwd, "pht"),
    "new": (litmus_new, "pht"),
}


@pytest.mark.parametrize("suite", list(SUITES))
def test_clou_litmus_suite(benchmark, suite):
    cases_fn, engine = SUITES[suite]
    cases = cases_fn()

    row = benchmark.pedantic(
        _clou_tool_row, args=(cases, engine), rounds=1, iterations=1,
    )

    # Shape: Clou classifies, and every intended-leaky case leaks.
    assert sum(row.counts.values()) > 0
    for case in cases:
        report = _analyze(case.source, engine=engine,
                          config=CLOU_TABLE2_CONFIG, name=case.name)
        if case.intended_leaky:
            assert report.leaky, f"{case.name} must be flagged"
        if "udt" in case.intended_classes:
            assert report.total(TC.UNIVERSAL_DATA) >= 1 or \
                report.total(TC.DATA) >= 1, case.name


@pytest.mark.parametrize("suite", list(SUITES))
def test_bh_litmus_suite(benchmark, suite):
    cases_fn, engine = SUITES[suite]
    cases = cases_fn()

    row = benchmark.pedantic(
        _bh_tool_row, args=(cases, engine), rounds=1, iterations=1,
    )
    # BH reports a flat count (no classification).
    assert row.bug_count is not None


def test_clou_finds_all_intended_pht_transmitters(benchmark):
    """§6.1: 'Clou identifies all intended transmitters in the PHT
    programs'."""

    def run():
        found = {}
        for case in litmus_pht():
            report = _analyze(case.source, engine="pht",
                              config=CLOU_TABLE2_CONFIG, name=case.name)
            best = TC.UNIVERSAL_DATA if report.total(TC.UNIVERSAL_DATA) else (
                TC.UNIVERSAL_CONTROL if report.total(TC.UNIVERSAL_CONTROL)
                else (TC.DATA if report.total(TC.DATA) else (
                    TC.CONTROL if report.total(TC.CONTROL) else None)))
            found[case.name] = best
        return found

    found = benchmark.pedantic(run, rounds=1, iterations=1)
    for case in litmus_pht():
        assert found[case.name] is not None
        if "udt" in case.intended_classes:
            assert found[case.name] is TC.UNIVERSAL_DATA, case.name


def test_stl13_mislabel_detected(benchmark):
    """§6.1: STL13 is labeled secure in the benchmark suite, but Clou
    finds the store-bypass leak the label misses."""
    from repro.bench.suites import by_name

    case = by_name("stl13")
    report = benchmark.pedantic(
        _analyze,
        args=(case.source,),
        kwargs={"engine": "stl", "config": CLOU_TABLE2_CONFIG,
                "name": case.name},
        rounds=1, iterations=1,
    )
    assert report.leaky


def test_new01_found_by_both_engines(benchmark):
    """§6.1: BH and Clou find NEW01 (Pitchfork misses it)."""
    from repro.bench.suites import by_name

    case = by_name("new01")

    def run():
        clou = _analyze(case.source, engine="pht",
                        config=CLOU_TABLE2_CONFIG, name=case.name)
        bh = bh_analyze_source(case.source, engine="pht", name=case.name)
        return clou, bh

    clou, bh = benchmark.pedantic(run, rounds=1, iterations=1)
    assert clou.leaky
    assert sum(r.bug_count for r in bh) > 0
