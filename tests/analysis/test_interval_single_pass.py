"""The single-pass interval analysis against the round-capped fixpoint.

``IntervalAnalysis`` makes one reverse-postorder pass; the reference in
``tests/analysis/interval_reference.py`` is the fixpoint it replaced.
Checked here:

- on every A-CFG function (acyclic) of the crypto and litmus corpora
  and the bounded, scaling and forward-gadget synthetics: equal
  ``range_of`` for every integer temp and equal ``access_in_bounds``
  for every load and store (synth_700/1500/3000 only under ``-m slow``);
- on raw ``compile_c`` functions with loops (generated fuzz programs):
  the single pass is coarser, never narrower — each of its ranges
  contains the reference's, and it proves no access the reference
  does not;
- the pass transfers each integer temp exactly once.
"""

import pytest

from repro.analysis import IntervalAnalysis
from repro.bench.suites import CORPUS_DIR
from repro.bench.synthetic import bounded_corpus, fwd_corpus, scaling_corpus
from repro.clou import build_acfg
from repro.fuzz.gen_c import generate_c
from repro.ir import IntType, Load, Store
from repro.minic import compile_c
from tests.analysis.interval_reference import ReferenceIntervalAnalysis

CORPUS_FILES = sorted(CORPUS_DIR.glob("*/*.c"))
SYNTHETICS = (scaling_corpus([2, 5, 10, 25, 60, 140, 320])
              + bounded_corpus() + bounded_corpus([60, 320])
              + fwd_corpus())
SLOW_SYNTHETICS = scaling_corpus([700, 1500, 3000])


def _acfg_functions(source):
    module = compile_c(source)
    for function in module.public_functions():
        if function.blocks:
            yield build_acfg(module, function.name).function


def _int_temps(function):
    return [ins.result for block in function.blocks
            for ins in block.instructions
            if ins.result is not None and isinstance(ins.result.type, IntType)]


def _accesses(function):
    return [ins for block in function.blocks for ins in block.instructions
            if isinstance(ins, (Load, Store))]


def _assert_equal(source):
    functions = list(_acfg_functions(source))
    assert functions
    for function in functions:
        new = IntervalAnalysis(function)
        ref = ReferenceIntervalAnalysis(function)
        for temp in _int_temps(function):
            assert new.range_of(temp) == ref.range_of(temp), \
                (function.name, temp.name)
        for ins in _accesses(function):
            assert new.access_in_bounds(ins) == ref.access_in_bounds(ins), \
                (function.name, ins)


@pytest.mark.parametrize("path", CORPUS_FILES,
                         ids=[f"{p.parent.name}/{p.stem}" for p in CORPUS_FILES])
def test_corpus_matches_fixpoint(path):
    _assert_equal(path.read_text())


@pytest.mark.parametrize("name,source", SYNTHETICS,
                         ids=[name for name, _ in SYNTHETICS])
def test_synthetic_matches_fixpoint(name, source):
    _assert_equal(source)


@pytest.mark.slow
@pytest.mark.parametrize("name,source", SLOW_SYNTHETICS,
                         ids=[name for name, _ in SLOW_SYNTHETICS])
def test_large_synthetic_matches_fixpoint(name, source):
    _assert_equal(source)


def _has_back_edge(function):
    position = {block.label: index
                for index, block in enumerate(function.blocks)}
    return any(position[succ] <= position[block.label]
               for block in function.blocks
               for succ in block.successors())


def test_cyclic_functions_contain_fixpoint():
    cyclic = 0
    for seed in range(12):
        module = compile_c(generate_c(seed).source)
        for function in module.functions.values():
            if not function.blocks:
                continue
            cyclic += _has_back_edge(function)
            new = IntervalAnalysis(function)
            ref = ReferenceIntervalAnalysis(function)
            for temp in _int_temps(function):
                assert new.range_of(temp).contains(ref.range_of(temp)), \
                    (seed, function.name, temp.name)
            for ins in _accesses(function):
                assert ref.access_in_bounds(ins) or \
                    not new.access_in_bounds(ins), (seed, function.name, ins)
    assert cyclic, "no generated function has a loop"


def test_each_temp_transferred_once(monkeypatch):
    calls = []
    transfer = IntervalAnalysis._transfer

    def counting(self, ins, *args):
        calls.append(ins.result.name)
        return transfer(self, ins, *args)

    monkeypatch.setattr(IntervalAnalysis, "_transfer", counting)
    (name, source), = bounded_corpus([14])
    (function,) = _acfg_functions(source)
    IntervalAnalysis(function)
    assert sorted(calls) == sorted(temp.name for temp in _int_temps(function))
