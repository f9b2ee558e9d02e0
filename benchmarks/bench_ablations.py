"""Ablation benches for the design decisions DESIGN.md calls out.

- addr_gep filter (§5.3): on/off — off can only find more UDTs (it
  removes a benign-leak filter), and the filter must not lose the true
  Spectre v1 gadget.
- sliding window Wsize (§6.2.1): sweeping the window trades runtime for
  (mis)classification; a tiny window hides the gadget, the paper-size
  window finds it.
- infinite direct-mapped cache (§5.2): mapping xstate 1:1 to addresses
  guarantees no false negatives; a tiny finite cache (colliding
  elements) in the LCM layer must only ever *add* leaky behaviours.
- directed vs. exhaustive microarchitectural search (LCM layer): the
  directed slice must find every transmitter class the exhaustive
  search finds on litmus-scale programs.
"""

import pytest

from repro.bench.suites import by_name
from repro.clou import ClouConfig
from repro.sched import AnalysisRequest, ClouSession
from repro.lcm import x86_lcm
from repro.lcm.taxonomy import TransmitterClass as TC
from repro.litmus import SpeculationConfig, parse_program

_SESSION = ClouSession(jobs=1, cache=False)


def _analyze(source, **kwargs):
    return _SESSION.analyze(AnalysisRequest.analyze(source, **kwargs))


def test_addr_gep_filter_ablation(benchmark):
    case = by_name("pht01")

    def run():
        on = _analyze(case.source, engine="pht",
                      config=ClouConfig(addr_gep_filter=True))
        off = _analyze(case.source, engine="pht",
                       config=ClouConfig(addr_gep_filter=False))
        return on, off

    on, off = benchmark.pedantic(run, rounds=1, iterations=1)
    assert on.total(TC.UNIVERSAL_DATA) >= 1
    assert off.total(TC.UNIVERSAL_DATA) >= on.total(TC.UNIVERSAL_DATA)


@pytest.mark.parametrize("window", [4, 64, 250])
def test_window_sweep(benchmark, window):
    case = by_name("donna")
    config = ClouConfig(window_size=window, rob_size=min(window, 250),
                        timeout_seconds=120.0)
    report = benchmark.pedantic(
        _analyze, args=(case.source,),
        kwargs={"engine": "pht", "config": config, "name": case.name},
        rounds=1, iterations=1,
    )
    assert not any(f.error for f in report.functions)


def test_window_too_small_hides_gadget(benchmark):
    case = by_name("pht01")

    def run():
        tiny = _analyze(case.source, engine="pht",
                        config=ClouConfig(window_size=2, rob_size=2))
        full = _analyze(case.source, engine="pht",
                        config=ClouConfig())
        return tiny, full

    tiny, full = benchmark.pedantic(run, rounds=1, iterations=1)
    assert tiny.total(TC.UNIVERSAL_DATA) == 0
    assert full.total(TC.UNIVERSAL_DATA) == 1


def test_finite_cache_only_adds_leakage(benchmark):
    """Colliding xstate elements (finite direct-mapped cache) can only
    create additional communication channels."""
    program = parse_program("""
  r1 = load x
  r2 = load y
""", name="collide")

    def run():
        infinite = x86_lcm(SpeculationConfig.none()).analyze(program)
        finite = x86_lcm(SpeculationConfig.none(), num_sets=1).analyze(program)
        return infinite, finite

    infinite, finite = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(finite.reports) >= len(infinite.reports)


def test_directed_matches_exhaustive_on_litmus(benchmark):
    """The directed microarchitectural slice finds the same transmitter
    classes as full enumeration at litmus scale."""
    program = parse_program("""
  r1 = load size
  r2 = load y
  r3 = lt r2, r1
  beqz r3, END
  r4 = load A[r2]
END: nop
""", name="tiny-v1")

    def run():
        directed = x86_lcm(SpeculationConfig(depth=1))
        exhaustive = x86_lcm(SpeculationConfig(depth=1))
        exhaustive.exhaustive = True
        return directed.analyze(program), exhaustive.analyze(program)

    directed, exhaustive = benchmark.pedantic(run, rounds=1, iterations=1)
    assert directed.classes() == exhaustive.classes()
