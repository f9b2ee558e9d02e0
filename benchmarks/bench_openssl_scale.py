"""The OpenSSL row of Table 2, shape-wise: library-scale analysis under
a per-file time budget.

The paper runs Clou over OpenSSL (3307 public functions, 161k LoC) with
a 1-hour-per-file budget and completes 90% (PHT) / 81% (STL) of
functions.  We reproduce the *workflow and completion-rate shape* on a
generated TLS-library-like translation unit: dozens of public functions
with a heavy-tailed size profile, analyzed function-by-function under a
tight per-function budget, reporting the completion fraction.
"""

import pytest

from repro.bench.synthetic import openssl_like_source
from repro.clou import ClouConfig
from repro.sched import AnalysisRequest, ClouSession

_SESSION = ClouSession(jobs=1, cache=False)


def _analyze(source, **kwargs):
    return _SESSION.analyze(AnalysisRequest.analyze(source, **kwargs))


@pytest.fixture(scope="module")
def openssl_like():
    return openssl_like_source(n_functions=40)


@pytest.mark.parametrize("engine", ["pht", "stl"])
def test_library_scale_completion_rate(benchmark, openssl_like, engine):
    config = ClouConfig(timeout_seconds=5.0)  # tight per-function budget

    report = benchmark.pedantic(
        _analyze, args=(openssl_like,),
        kwargs={"engine": engine, "config": config, "name": "openssl-like"},
        rounds=1, iterations=1,
    )
    total = len(report.functions)
    completed = sum(
        1 for f in report.functions if not f.timed_out and not f.error
    )
    assert total == 40
    # The paper's completion rates are 90%/81%; require the same ballpark.
    assert completed / total >= 0.85, (
        f"{engine}: only {completed}/{total} functions completed"
    )
    print(f"\n{engine}: {completed}/{total} functions completed "
          f"({100 * completed / total:.0f}%), "
          f"{report.elapsed:.1f}s serial")


def test_gadgets_found_at_scale(benchmark, openssl_like):
    """The embedded bounds-checked lookups must surface as UDTs even in
    the large-unit setting (the paper finds 6 UDTs + 2 UCTs in OpenSSL)."""
    from repro.lcm.taxonomy import TransmitterClass as TC

    config = ClouConfig(timeout_seconds=5.0, classes=("udt", "uct"))
    report = benchmark.pedantic(
        _analyze, args=(openssl_like,),
        kwargs={"engine": "pht", "config": config, "name": "openssl-like"},
        rounds=1, iterations=1,
    )
    assert report.total(TC.UNIVERSAL_DATA) >= 1
