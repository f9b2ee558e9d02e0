"""repro — a reproduction of *Axiomatic Hardware-Software Contracts for
Security* (Mosier, Lachnitt, Nemati, Trippel; ISCA 2022).

The package implements, from scratch:

- the axiomatic MCM/LCM vocabulary (relations, event structures,
  candidate executions, consistency and confidentiality predicates);
- leakage containment models: microarchitectural (xstate) semantics,
  speculative semantics, non-interference predicates, and the transmitter
  taxonomy of Table 1;
- the ``subrosa`` bounded model-finding toolkit;
- the ``Clou`` static analyzer: a mini-C compiler to an LLVM-like IR,
  abstract CFG construction, symbolic abstract event graphs, alias/taint
  analysis, Spectre v1/v1.1/v4 leakage detection engines, and minimal
  fence-insertion repair;
- a Binsec/Haunted-style baseline and the paper's full benchmark harness
  (Table 2, Figure 8).

Quickstart::

    from repro import AnalysisRequest, ClouSession
    session = ClouSession(jobs=4)
    report = session.analyze(AnalysisRequest.analyze(
        open("victim.c").read(), engine="pht", name="victim.c"))
    for transmitter in report.transmitters:
        print(transmitter)
"""

__version__ = "1.0.0"

_LAZY_EXPORTS = {
    "CLOU_DEFAULT_CONFIG": ("repro.clou.engine", "CLOU_DEFAULT_CONFIG"),
    "ClouConfig": ("repro.clou.engine", "ClouConfig"),
    "ClouSession": ("repro.sched", "ClouSession"),
    "AnalysisRequest": ("repro.sched", "AnalysisRequest"),
    "AnalysisResult": ("repro.sched", "AnalysisResult"),
    "LeakageContainmentModel": ("repro.lcm.contracts", "LeakageContainmentModel"),
    "TransmitterClass": ("repro.lcm.taxonomy", "TransmitterClass"),
}


def __getattr__(name):
    """Lazily resolve the public API so subpackages import independently."""
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)

__all__ = [
    "AnalysisRequest",
    "AnalysisResult",
    "CLOU_DEFAULT_CONFIG",
    "ClouConfig",
    "ClouSession",
    "LeakageContainmentModel",
    "TransmitterClass",
    "__version__",
]
