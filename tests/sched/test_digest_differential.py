"""Function digests from the parser's spans against the top-level token
splitter they replaced (``digest_reference.py``): equal digests on the
litmus and crypto corpora, the synthetic corpora, one OpenSSL-shaped
unit and 200 fuzzer-generated units.  Equal digests mean equal item
cache keys, so existing caches keep hitting."""

from __future__ import annotations

import pytest

from repro.bench.suites import all_cases
from repro.bench.synthetic import bounded_corpus, fwd_corpus, \
    openssl_like_source, scaling_corpus
from repro.fuzz.gen_c import generate_c
from repro.minic import compile_c
from repro.sched.digest import function_digests
from tests.sched import digest_reference


def _sources():
    for case in all_cases():
        yield case.name, case.source
    yield "openssl_like", openssl_like_source()
    for corpus in (scaling_corpus(), bounded_corpus(), fwd_corpus()):
        yield from corpus


CORPUS = list(_sources())


def test_corpus_size():
    assert len(CORPUS) == 61


@pytest.mark.parametrize("name,source", CORPUS,
                         ids=[name for name, _ in CORPUS])
def test_corpus_digests_match_the_splitter(name, source):
    expected = digest_reference.function_digests(source)
    assert expected is not None
    assert function_digests(compile_c(source, name)) == expected


def test_generated_digests_match_the_splitter():
    for seed in range(200):
        source = generate_c(seed).source
        expected = digest_reference.function_digests(source)
        assert expected is not None, seed
        assert function_digests(compile_c(source)) == expected, seed
