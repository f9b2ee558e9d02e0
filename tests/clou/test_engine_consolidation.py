"""The shared search skeleton against the engines it replaced.

``tests/clou/engine_reference.py`` keeps the engine classes as they were
before FWD's loops, PSF's store scan and the per-site witness blocks
were folded into :class:`repro.clou.engine.DetectionEngine`.  For every
registered engine and every config below, both run on the same S-AEG
and must agree on:

- the raw witness list, in order (``repair``'s hitting set and the
  §6.2.3 grouping read every witness, not only the transmitters);
- ``candidates``, ``pruned`` and ``skipped``;
- the stream of checkpoint messages.

Corpora: every litmus program, the crypto corpus, the Fig. 8 scaling
synthetics up to 60 rounds and the FWD synthetics.  The largest sources
run the full config matrix only in the slow suite, donna only its
default config.
"""

import pytest

from repro.bench.suites import all_litmus, crypto_cases
from repro.bench.synthetic import fwd_corpus, scaling_corpus
from repro.clou import SAEG, build_acfg
from repro.clou.engine import ENGINES, ClouConfig
from repro.clou.serialize import witness_dict
from repro.minic import compile_c
from tests.clou.engine_reference import REFERENCE_ENGINES

CONFIGS = {
    "default": ClouConfig(),
    "udt-uct-ct": ClouConfig(classes=("udt", "uct", "ct")),
    "udt-uct": ClouConfig(classes=("udt", "uct")),
    "udt": ClouConfig(classes=("udt",)),
    "ct": ClouConfig(classes=("ct",)),
    "no-addr-gep": ClouConfig(addr_gep_filter=False),
    "no-range-pruning": ClouConfig(enable_range_pruning=False),
    "no-range-pruning-udt": ClouConfig(enable_range_pruning=False,
                                       classes=("udt", "uct")),
    "alias-prediction": ClouConfig(assume_alias_prediction=True),
    "interference": ClouConfig(detect_interference_variant=True),
    "committed-access": ClouConfig(require_transient_access=False),
    "hops-0": ClouConfig(max_store_hops=0),
    "hops-2": ClouConfig(max_store_hops=2),
    "lsq-0": ClouConfig(lsq_size=0),
}

SOURCES = {
    **{case.name: case.source for case in all_litmus()},
    **{case.name: case.source for case in crypto_cases()},
    **dict(scaling_corpus([2, 5, 10, 25, 60])),
    **dict(fwd_corpus()),
}

#: Sources whose full config matrix takes over ten seconds: the fast
#: suite runs them under the default config, the slow one under the rest.
#: Donna (about 12 s per config) runs the default config in the slow
#: suite; ``make json-identity`` covers it under four more.
HEAVY = {"ssl3_digest", "chacha20", "mee_cbc", "hmac", "secretbox",
         "synth_60"}
REST = tuple(label for label in CONFIGS if label != "default")


def _params():
    for name in SOURCES:
        if name == "donna":
            yield pytest.param(name, ("default",), id=name,
                               marks=pytest.mark.slow)
        elif name in HEAVY:
            yield pytest.param(name, ("default",), id=f"{name}-default")
            yield pytest.param(name, REST, id=f"{name}-rest",
                               marks=pytest.mark.slow)
        else:
            yield pytest.param(name, tuple(CONFIGS), id=name)


def _aegs(source):
    module = compile_c(source)
    for function in module.public_functions():
        if function.blocks:
            yield SAEG(build_acfg(module, function.name).function)


def _run(cls, aeg, config):
    snapshots = []
    report = cls(aeg, config).run(checkpoint=snapshots.append)
    return {
        "witnesses": [witness_dict(w) for w in report.witnesses],
        "candidates": report.candidates,
        "pruned": report.pruned,
        "skipped": report.skipped,
        "snapshots": snapshots,
    }


@pytest.mark.parametrize("name,labels", _params())
def test_engines_match_reference(name, labels):
    runs = 0
    for aeg in _aegs(SOURCES[name]):
        for engine, cls in ENGINES.items():
            for label in labels:
                config = CONFIGS[label]
                where = (name, aeg.function.name, engine, label)
                expected = _run(REFERENCE_ENGINES[engine], aeg, config)
                assert _run(cls, aeg, config) == expected, where
                runs += 1
    assert runs
