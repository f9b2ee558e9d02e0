"""Differential tests of S-AEG construction: the provenance-bucketed rf
and the change-driven (data.rf)* extension must give the same ``rf``,
``deps`` and ``taint``, orders included, as the original quadratic code
kept in :mod:`tests.clou.saeg_reference`."""

import pytest

from repro.bench.suites import all_litmus, crypto_cases
from repro.bench.synthetic import (fwd_corpus, openssl_like_source,
                                   scaling_corpus)
from repro.clou import build_acfg
from repro.minic import compile_c
from tests.clou.saeg_reference import assert_same_build


def _assert_module(source: str, name: str) -> int:
    """Check every public function of ``source``; returns how many."""
    module = compile_c(source, name=name)
    checked = 0
    for function in module.functions.values():
        if function.is_public:
            assert_same_build(build_acfg(module, function.name).function)
            checked += 1
    assert checked
    return checked


@pytest.mark.parametrize("case", all_litmus(), ids=lambda case: case.name)
def test_litmus(case):
    _assert_module(case.source, case.name)


SYNTHETIC = scaling_corpus([2, 5, 10, 25, 60]) + fwd_corpus([4, 10])


@pytest.mark.parametrize("name,source", SYNTHETIC,
                         ids=[name for name, _ in SYNTHETIC])
def test_synthetic(name, source):
    _assert_module(source, name)


def test_openssl_like_unit():
    assert _assert_module(openssl_like_source(24, seed=23),
                          "openssl_like.c") == 24


@pytest.mark.slow
@pytest.mark.parametrize("case", crypto_cases(), ids=lambda case: case.name)
def test_crypto(case):
    _assert_module(case.source, case.name)
