"""Range-pruning ablation (``ClouConfig.enable_range_pruning``).

The interval analysis proves some accesses in bounds on *every* A-CFG
path — branch-independently, so the proof survives PHT misprediction —
and the PHT engine then skips universal classification for address
dependencies headed by those accesses.  Two properties to measure:

- **Litmus invariance**: the Table 2 PHT detections are unchanged.  The
  litmus gadgets index with unmasked attacker input, so nothing there
  is provably bounded and pruning must be a no-op.
- **Bounded-corpus win**: on mask-bounded lookups (``t[s[x & 255]]``)
  pruning removes the spurious universal transmitters and, when only
  universal classes are requested, skips the windowed search entirely —
  strictly fewer candidates and a measurable speedup.
"""

import pytest

from repro.bench.suites import litmus_pht
from repro.bench.synthetic import bounded_corpus
from repro.clou import ClouConfig
from repro.sched import AnalysisRequest, ClouSession
from repro.lcm.taxonomy import TransmitterClass as TC

_SESSION = ClouSession(jobs=1, cache=False)


def _analyze(source, **kwargs):
    return _SESSION.analyze(AnalysisRequest.analyze(source, **kwargs))


PRUNE_ON = ClouConfig(enable_range_pruning=True)
PRUNE_OFF = ClouConfig(enable_range_pruning=False)
# UDT-only analysis: with pruning on, bounded address deps are filtered
# before the windowed BFS, and transmitters with no deps left (and no
# control-class work pending) skip the window entirely — the speedup path.
UDT_ON = ClouConfig(enable_range_pruning=True, classes=("udt",))
UDT_OFF = ClouConfig(enable_range_pruning=False, classes=("udt",))


def _totals(report):
    return {klass: report.total(klass) for klass in TC}


def _witness_keys(report):
    return sorted(
        (w.transmit.block, w.transmit.index, w.klass.value)
        for w in report.transmitters
    )


@pytest.mark.parametrize("case", litmus_pht(), ids=lambda c: c.name)
def test_litmus_detections_invariant(benchmark, case):
    """Pruning never changes what Table 2 reports on the PHT suite."""

    def run():
        on = _analyze(case.source, engine="pht", config=PRUNE_ON,
                      name=case.name)
        off = _analyze(case.source, engine="pht", config=PRUNE_OFF,
                       name=case.name)
        return on, off

    on, off = benchmark.pedantic(run, rounds=1, iterations=1)
    assert _totals(on) == _totals(off)
    assert _witness_keys(on) == _witness_keys(off)


def test_bounded_corpus_pruning_strictly_wins(benchmark):
    """Mask-bounded lookups: fewer universal findings, fewer candidates."""
    corpus = bounded_corpus()

    def run():
        results = []
        for name, source in corpus:
            on = _analyze(source, engine="pht", config=PRUNE_ON,
                          name=name)
            off = _analyze(source, engine="pht", config=PRUNE_OFF,
                           name=name)
            results.append((name, on, off))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, on, off in results:
        # Pruning only ever removes universal classifications.
        assert on.total(TC.UNIVERSAL_DATA) <= off.total(TC.UNIVERSAL_DATA)
        assert on.total(TC.UNIVERSAL_CONTROL) <= off.total(TC.UNIVERSAL_CONTROL)
        assert on.pruned > 0, f"{name}: nothing proved in bounds"
    # Across the corpus the masked lookups are spurious UDTs without
    # pruning and must disappear with it.
    udt_on = sum(on.total(TC.UNIVERSAL_DATA) for _, on, _ in results)
    udt_off = sum(off.total(TC.UNIVERSAL_DATA) for _, _, off in results)
    assert udt_off > 0
    assert udt_on < udt_off


def test_bounded_corpus_candidate_counts_decrease(benchmark):
    """Universal-only analysis: bounded deps are filtered before the
    windowed search, so the candidate count strictly decreases."""
    corpus = bounded_corpus()

    def run():
        pairs = []
        for name, source in corpus:
            on = _analyze(source, engine="pht", config=UDT_ON,
                          name=name)
            off = _analyze(source, engine="pht", config=UDT_OFF,
                           name=name)
            pairs.append((name, on, off))
        return pairs

    pairs = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, on, off in pairs:
        assert on.candidates < off.candidates, (
            f"{name}: pruning did not reduce windowed searches "
            f"({on.candidates} vs {off.candidates})")


def test_bounded_corpus_engine_speedup(benchmark):
    """Engine-runtime ablation: pruning pays for the interval analysis
    and still comes out ahead by skipping the windowed searches.

    ``FunctionReport.elapsed`` times only the engine run (the lazy
    interval build included), so this isolates the search cost from the
    shared compile/A-CFG/S-AEG front end.  EXPERIMENTS.md's range-pruning
    paragraph records what this corpus measures; where the interval
    build costs more than the searches it skips, this assertion fails.
    """
    corpus = bounded_corpus(sizes=[60, 320])

    def run():
        on = off = 0.0
        for name, source in corpus:
            r_on = _analyze(source, engine="pht", config=UDT_ON,
                            name=name)
            r_off = _analyze(source, engine="pht", config=UDT_OFF,
                             name=name)
            on += sum(f.elapsed for f in r_on.functions)
            off += sum(f.elapsed for f in r_off.functions)
        return on, off

    on, off = benchmark.pedantic(run, rounds=1, iterations=1)
    assert on < off, (
        f"range pruning did not speed up the engine: {on:.4f}s with "
        f"pruning vs {off:.4f}s without")
