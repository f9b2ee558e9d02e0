"""Clou: static detection and repair of Spectre leakage, built on LCMs (§5)."""

from repro.clou.acfg import ACFG, build_acfg, inline_calls, unroll_loops
from repro.clou.aeg import SAEG, AEGNode, Dep
from repro.clou.alias import AliasAnalysis, AliasResult, Provenance
from repro.clou.engine import (
    CLOU_DEFAULT_CONFIG,
    ClouConfig,
    ClouFWD,
    ClouPHT,
    ClouPSF,
    ClouSTL,
    ENGINES,
    engine_names,
    register_engine,
)
from repro.clou.postprocess import (
    GadgetClass,
    PostProcessResult,
    group_witnesses,
    postprocess,
)
from repro.clou.repair import RepairResult, insert_fences, minimum_hitting_set, repair
from repro.clou.report import ClouWitness, FunctionReport, ModuleReport, NodeRef

__all__ = [
    "ACFG",
    "AEGNode",
    "AliasAnalysis",
    "AliasResult",
    "CLOU_DEFAULT_CONFIG",
    "ClouConfig",
    "ClouFWD",
    "ClouPHT",
    "ClouPSF",
    "ClouSTL",
    "ClouWitness",
    "Dep",
    "ENGINES",
    "FunctionReport",
    "GadgetClass",
    "ModuleReport",
    "NodeRef",
    "PostProcessResult",
    "Provenance",
    "RepairResult",
    "SAEG",
    "build_acfg",
    "engine_names",
    "inline_calls",
    "insert_fences",
    "minimum_hitting_set",
    "group_witnesses",
    "postprocess",
    "register_engine",
    "repair",
    "unroll_loops",
]
