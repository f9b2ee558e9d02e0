"""Engine-level tests for ``ClouConfig.enable_range_pruning``.

Soundness contract: pruning gates only the *universal* classification
of a chain (UDT/UCT).  A provably-bounded access can only read its own
object, so the chain degrades to DT/CT — which is still searched and
still reported.  The Table 2 litmus gadgets index with unmasked
attacker input, so pruning must be a no-op there.
"""

import pytest

from repro.bench.suites import by_name
from repro.bench.synthetic import bounded_corpus
from repro.clou import ClouConfig
from repro.sched import AnalysisRequest, ClouSession
from repro.lcm.taxonomy import TransmitterClass as TC

_SESSION = ClouSession(jobs=1, cache=False)

ON = ClouConfig(enable_range_pruning=True)
OFF = ClouConfig(enable_range_pruning=False)

# pht01's shape with the inner lookup masked into bounds: the A[y & 255]
# access is provably bounded, so the chain is no longer universal — but
# it is still a DT (the B[...] transmit address carries A's data).
MASKED_VICTIM = """
uint8_t A[256];
uint8_t B[65536];
uint64_t size = 256;
uint8_t tmp;
void victim(uint64_t y) {
    if (y < size) {
        tmp &= B[A[y & 255] * 64];
    }
}
"""


def _totals(report):
    return {klass: report.total(klass) for klass in TC}


@pytest.mark.parametrize("name", ["pht01", "pht02", "pht05", "pht08",
                                  "pht10", "pht13"])
def test_litmus_detections_unchanged(name):
    case = by_name(name)
    on = _SESSION.analyze(AnalysisRequest.analyze(case.source, engine="pht", config=ON, name=name))
    off = _SESSION.analyze(AnalysisRequest.analyze(case.source, engine="pht", config=OFF, name=name))
    assert _totals(on) == _totals(off)


def test_masked_victim_udt_pruned_dt_kept():
    on = _SESSION.analyze(AnalysisRequest.analyze(MASKED_VICTIM, engine="pht", config=ON))
    off = _SESSION.analyze(AnalysisRequest.analyze(MASKED_VICTIM, engine="pht", config=OFF))
    assert off.total(TC.UNIVERSAL_DATA) >= 1
    assert on.total(TC.UNIVERSAL_DATA) == 0
    # The chain survives at the data-transmitter level: still reported.
    assert on.total(TC.DATA) >= 1
    assert on.pruned >= 1 and off.pruned == 0


def test_unmasked_victim_untouched():
    """The true Spectre v1 gadget (unmasked index) is never pruned."""
    case = by_name("pht01")
    on = _SESSION.analyze(AnalysisRequest.analyze(case.source, engine="pht", config=ON, name="pht01"))
    assert on.total(TC.UNIVERSAL_DATA) >= 1


def test_bounded_corpus_candidates_decrease():
    udt_on = ClouConfig(enable_range_pruning=True, classes=("udt",))
    udt_off = ClouConfig(enable_range_pruning=False, classes=("udt",))
    for name, source in bounded_corpus(sizes=[6]):
        on = _SESSION.analyze(AnalysisRequest.analyze(source, engine="pht", config=udt_on, name=name))
        off = _SESSION.analyze(AnalysisRequest.analyze(source, engine="pht", config=udt_off, name=name))
        assert on.candidates < off.candidates
        assert on.total(TC.UNIVERSAL_DATA) < off.total(TC.UNIVERSAL_DATA)


def test_stl_engine_does_not_prune():
    """Store-bypass invalidates slot-range reasoning: STL never prunes,
    even with the knob on."""
    report = _SESSION.analyze(AnalysisRequest.analyze(MASKED_VICTIM, engine="stl", config=ON))
    assert report.pruned == 0

