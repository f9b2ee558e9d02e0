"""Table 2, crypto rows: Clou and BH over the crypto corpus.

Shape invariants from §6.2:

- tea: no universal transmitters (Table 2: 0/0);
- donna/secretbox: no universal transmitters under precise alias
  analysis (Table 2's parenthesized worst-case-alias counts);
- sigalgs: the SSL_get_shared_sigalgs UDT is found (Listing 1);
- Clou completes every crypto function; BH hits its timeout on the
  larger ones (donna, mee-cbc).
"""

import pytest

from repro.baselines.bh import bh_analyze_source
from repro.bench.suites import by_name, crypto_cases
from repro.bench.table2 import CLOU_TABLE2_CONFIG
from repro.sched import AnalysisRequest, ClouSession
from repro.lcm.taxonomy import TransmitterClass as TC

_SESSION = ClouSession(jobs=1, cache=False)


def _analyze(source, **kwargs):
    return _SESSION.analyze(AnalysisRequest.analyze(source, **kwargs))


CRYPTO = [case.name for case in crypto_cases()]


@pytest.mark.parametrize("name", CRYPTO)
def test_clou_pht_crypto(benchmark, name):
    case = by_name(name)
    report = benchmark.pedantic(
        _analyze, args=(case.source,),
        kwargs={"engine": "pht", "config": CLOU_TABLE2_CONFIG, "name": name},
        rounds=1, iterations=1,
    )
    assert not any(f.error for f in report.functions)
    assert not any(f.timed_out for f in report.functions)
    if name in ("tea", "donna", "secretbox"):
        assert report.total(TC.UNIVERSAL_DATA) == 0, (
            f"{name}: Table 2 reports no true universal PHT leakage"
        )
    if name == "sigalgs":
        assert report.total(TC.UNIVERSAL_DATA) >= 1, (
            "the Listing 1 gadget must be found"
        )


@pytest.mark.parametrize("name", [n for n in CRYPTO if n != "sigalgs"])
def test_clou_stl_crypto(benchmark, name):
    case = by_name(name)
    report = benchmark.pedantic(
        _analyze, args=(case.source,),
        kwargs={"engine": "stl", "config": CLOU_TABLE2_CONFIG, "name": name},
        rounds=1, iterations=1,
    )
    assert not any(f.error for f in report.functions)


@pytest.mark.parametrize("name", ["tea", "donna", "mee_cbc"])
def test_bh_crypto(benchmark, name):
    case = by_name(name)
    reports = benchmark.pedantic(
        bh_analyze_source, args=(case.source,),
        kwargs={"engine": "stl", "timeout_seconds": 5.0, "name": name},
        rounds=1, iterations=1,
    )
    if name in ("donna", "mee_cbc"):
        # The paper's BH rows for these workloads are timeouts (bold in
        # Table 2): path explosion.
        assert any(r.timed_out for r in reports), (
            f"BH should exhaust its budget on {name}"
        )


def test_sigalgs_gadget_chain(benchmark):
    """Listing 1 (§6.2.3): idx -> shared_sigalgs[idx] (pointer load,
    transient) -> field dereference transmits."""
    case = by_name("sigalgs")
    report = benchmark.pedantic(
        _analyze, args=(case.source,),
        kwargs={"engine": "pht", "config": CLOU_TABLE2_CONFIG,
                "name": "sigalgs"},
        rounds=1, iterations=1,
    )
    udts = [w for w in report.transmitters
            if w.klass is TC.UNIVERSAL_DATA]
    assert udts
    gadget = udts[0]
    assert "idx" in gadget.index.text
    assert "SIGALG_LOOKUP" in gadget.access.text  # the pointer load
    assert gadget.transient_access and gadget.transient_transmit


def test_sodium_combined_gadget(benchmark):
    """§6.2.3: the v1.1+v4-flavoured UDT class in libsodium-like code."""
    case = by_name("sodium_misc")
    report = benchmark.pedantic(
        _analyze, args=(case.source,),
        kwargs={"engine": "stl", "config": CLOU_TABLE2_CONFIG,
                "name": "sodium_misc"},
        rounds=1, iterations=1,
    )
    assert report.total(TC.UNIVERSAL_DATA) >= 1
