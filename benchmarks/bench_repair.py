"""§6.1 fence insertion: every vulnerable litmus program is repaired.

The paper reports full mitigation of all initially-detected leakage,
with ~1 fence per vulnerable PHT/STL program and ~2 for FWD/NEW.  The
asserts here check full repair everywhere and the 1-fence result for
the classic PHT shape.
"""

import pytest

from repro.bench.suites import by_name, litmus_fwd, litmus_new, litmus_pht, litmus_stl
from repro.sched import AnalysisRequest, ClouSession

_SESSION = ClouSession(jobs=1, cache=False)


def _repair(source, **kwargs):
    return _SESSION.repair(AnalysisRequest.repair(source, **kwargs))


SUITES = {
    "pht": (litmus_pht, "pht"),
    "stl": (litmus_stl, "stl"),
    "fwd": (litmus_fwd, "pht"),
    "new": (litmus_new, "pht"),
}


@pytest.mark.parametrize("suite", list(SUITES))
def test_repair_suite(benchmark, suite):
    cases_fn, engine = SUITES[suite]
    cases = cases_fn()

    def run():
        return [
            result
            for case in cases
            for result in _repair(case.source, engine=engine,
                                  name=case.name)
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    for result in results:
        assert result.fully_repaired, f"{result.function} not repaired"


def test_pht01_needs_exactly_one_fence(benchmark):
    case = by_name("pht01")
    results = benchmark.pedantic(
        _repair, args=(case.source,),
        kwargs={"engine": "pht", "name": case.name},
        rounds=1, iterations=1,
    )
    (result,) = results
    assert result.fully_repaired
    assert len(result.fences) == 1  # the paper: 1 fence per PHT program


def test_fence_budget_mean_small(benchmark):
    """Mean fences per vulnerable program stays in the paper's ballpark
    (1-2 for PHT, small single digits elsewhere)."""

    def run():
        counts = []
        for case in litmus_pht():
            for result in _repair(case.source, engine="pht",
                                  name=case.name):
                if result.fences:
                    counts.append(len(result.fences))
        return counts

    counts = benchmark.pedantic(run, rounds=1, iterations=1)
    assert counts
    assert sum(counts) / len(counts) <= 2.0
