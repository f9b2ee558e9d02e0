"""Counts, totals and the report dicts from one transmitter list per
report, against the per-class recount they replaced; and function
digests from the parser's token spans, against the top-level splitter
they replaced (``tests/sched/digest_reference.py``), from one
tokenization per source.

``_old_*`` below are the per-class recounts, which rebuilt
:meth:`FunctionReport.transmitters` for every class count (four times
for ``counts()``, four per function for ``totals()``, once more for
the list).  Reports come fresh from the engines (raw witnesses, one run
truncated at the witness cap) and rebuilt from the result cache, over
the litmus corpus and the crypto corpus without donna and chacha20.
"""

from __future__ import annotations

import json
from typing import Any

import pytest

from repro.bench.suites import all_litmus, crypto_cases
from repro.bench.synthetic import openssl_like_source
from repro.clou.engine import ClouConfig
from repro.clou.serialize import function_report_dict, module_report_dict, \
    witness_dict
from repro.lcm.taxonomy import TransmitterClass
from repro.errors import ParseError
from repro.minic import tokenize
from repro.sched import AnalysisRequest, ClouSession, worker
from repro.sched.cache import item_cache_key
from repro.sched.digest import function_digests
from tests.sched import digest_reference

SLOW_CRYPTO = {"donna", "chacha20"}


def _old_count(report, klass) -> int:
    return sum(1 for w in report.transmitters() if w.klass is klass)


def _old_counts(report) -> dict:
    return {klass: _old_count(report, klass) for klass in TransmitterClass}


def _old_totals(module) -> dict:
    return {klass: sum(_old_count(f, klass) for f in module.functions)
            for klass in TransmitterClass}


def _old_function_dict(report, stable: bool) -> dict[str, Any]:
    out = {
        "function": report.function,
        "engine": report.engine,
        "aeg_size": report.aeg_size,
        "timed_out": report.timed_out,
        "error": report.error,
        "verdict": report.verdict,
        "candidates": report.candidates,
        "pruned": report.pruned,
        "coverage": report.coverage(),
        "counts": {k.value: n for k, n in _old_counts(report).items()},
        "transmitters": [witness_dict(w) for w in report.transmitters()],
    }
    if not stable:
        out["elapsed_seconds"] = report.elapsed
    return out


def _old_module_dict(report, stable: bool) -> dict[str, Any]:
    out = {
        "name": report.name,
        "engine": report.engine,
        "leaky": report.leaky,
        "verdict": report.verdict,
        "complete": report.complete,
        "totals": {k.value: n for k, n in _old_totals(report).items()},
        "candidates": report.candidates,
        "pruned": report.pruned,
        "coverage": report.coverage(),
        "functions": [_old_function_dict(f, stable) for f in
                      sorted(report.functions, key=lambda f: f.function)],
    }
    if report.config is not None:
        out["config"] = report.config.to_dict()
    if not stable:
        out["elapsed_seconds"] = report.elapsed
    return out


def _requests():
    for case in all_litmus():
        for engine in case.engines:
            yield AnalysisRequest.analyze(case.source, engine=engine,
                                          name=case.name)
    for case in crypto_cases():
        if case.name not in SLOW_CRYPTO:
            yield AnalysisRequest.analyze(case.source, engine="pht",
                                          name=case.name)
    yield AnalysisRequest.analyze(
        next(c for c in crypto_cases() if c.name == "hmac").source,
        engine="pht", name="hmac-capped",
        config=ClouConfig(max_witnesses_per_function=40))


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """(fresh, rebuilt) module reports per request."""
    session = ClouSession(jobs=1, cache=True,
                          cache_dir=str(tmp_path_factory.mktemp("cache")))
    requests = list(_requests())
    fresh = session.run(requests)
    rebuilt = session.run(requests)
    assert all(r.ok for r in fresh + rebuilt)
    return [(a.report, b.report) for a, b in zip(fresh, rebuilt)]


def test_corpus_has_raw_and_capped_reports(reports):
    functions = [f for fresh, _ in reports for f in fresh.functions]
    assert any(len(f.witnesses) > len(f.transmitters()) for f in functions)
    assert any(f.skipped and f.witnesses for f in functions)


@pytest.mark.parametrize("side", [0, 1], ids=["fresh", "rebuilt"])
def test_counts_and_totals_match_the_recount(reports, side):
    for pair in reports:
        module = pair[side]
        assert module.totals() == _old_totals(module)
        for klass in TransmitterClass:
            assert module.total(klass) == _old_totals(module)[klass]
        for function in module.functions:
            assert function.counts() == _old_counts(function)


@pytest.mark.parametrize("stable", [True, False])
@pytest.mark.parametrize("side", [0, 1], ids=["fresh", "rebuilt"])
def test_dicts_match_the_recount(reports, side, stable):
    for pair in reports:
        module = pair[side]
        # Compared as JSON text, so key order counts too.
        assert json.dumps(module_report_dict(module, stable=stable)) == \
            json.dumps(_old_module_dict(module, stable))
        for function in module.functions:
            assert json.dumps(function_report_dict(function, stable)) == \
                json.dumps(_old_function_dict(function, stable))


def _sources():
    for case in all_litmus() + crypto_cases():
        yield case.name, case.source
    for count, seed in ((12, 23), (24, 23), (6, 5)):
        yield f"openssl_{count}_{seed}", openssl_like_source(count, seed)


@pytest.mark.parametrize("name,source", list(_sources()))
def test_shared_tokens_give_the_same_digests(name, source, tmp_path):
    worker.clear_caches()
    module = worker.module_for(source, name)
    assert [(t.kind, t.text, t.value, t.line) for t in module.tokens] == \
        [(t.kind, t.text, t.value, t.line) for t in tokenize(source)]
    digests = function_digests(module)
    assert digests == digest_reference.function_digests(source)
    # The session keys each function on exactly these digests.
    session = ClouSession(jobs=1, cache=True, cache_dir=str(tmp_path))
    request = AnalysisRequest.analyze(source, engine="pht", name=name)
    config = session.config
    keys = [item.cache_key for item in session._expand(0, request)]
    assert keys == [
        item_cache_key(kind="analyze", source=source,
                       source_key=digests[function.name],
                       function=function.name, engine="pht",
                       config_key=config.cache_key())
        for function in worker.module_for(source, name).public_functions()]


def test_unsplittable_source_raises_before_any_digest(monkeypatch,
                                                      tmp_path):
    import repro.sched.session as session_module

    monkeypatch.setattr(session_module, "function_digests",
                        lambda *args: pytest.fail("digest of a bad source"))
    session = ClouSession(jobs=1, cache=True, cache_dir=str(tmp_path))
    for source in ("int f(void) { return 0;", 'int f; "unterminated'):
        with pytest.raises(ParseError):
            session._expand(0, AnalysisRequest.analyze(source))


def test_one_tokenization_per_source(monkeypatch, tmp_path):
    import repro.minic as minic
    import repro.minic.cparser as cparser

    calls = []
    real = minic.tokenize

    def counted(source):
        calls.append(1)
        return real(source)
    for module in (minic, cparser):
        monkeypatch.setattr(module, "tokenize", counted)
    worker.clear_caches()
    source = openssl_like_source(6, 5)
    session = ClouSession(jobs=1, cache=True, cache_dir=str(tmp_path))
    session._expand(0, AnalysisRequest.analyze(source, name="u.c"))
    session._expand(0, AnalysisRequest.analyze(source, name="u.c"))
    assert len(calls) == 1


def test_uncached_session_computes_no_keys(monkeypatch):
    import repro.sched.session as session_module

    monkeypatch.setattr(session_module, "function_digests",
                        lambda *args: pytest.fail("digest without a cache"))
    session = ClouSession(jobs=1, cache=False)
    items = session._expand(0, AnalysisRequest.analyze(
        openssl_like_source(3, 5), name="u.c"))
    assert items and all(item.cache_key is None for item in items)
