"""Classical IR-level static analysis for the Clou pipeline.

A forward worklist dataflow framework (:mod:`.dataflow`, :mod:`.cfg`)
and its two Clou-facing clients: the sequential constant-time lint
(:mod:`.lint`, backed by the interprocedural secret taint in
:mod:`.taint`) and the branch-independent interval analysis
(:mod:`.interval`, one reverse-postorder pass over the reaching stores
of :mod:`.reaching`) that powers ``ClouConfig.enable_range_pruning``.
"""

from .cfg import BlockCFG
from .dataflow import (BitsetLattice, DataflowProblem, DataflowSolution,
                       Lattice, LevelLattice, MapLattice, solve)
from .interval import Interval, IntervalAnalysis, type_range
from .lint import (LintFinding, LintReport, lint_finding_from_dict,
                   lint_module, lint_report_dict, lint_report_from_dict,
                   lint_report_json, lint_source)
from .reaching import ReachingStores, SlotRef, resolve_slot
from .taint import SecretTaintAnalysis

__all__ = [
    "BitsetLattice", "BlockCFG", "DataflowProblem", "DataflowSolution", "Interval",
    "IntervalAnalysis", "Lattice", "LevelLattice", "LintFinding",
    "LintReport", "MapLattice", "ReachingStores",
    "SecretTaintAnalysis", "SlotRef", "lint_finding_from_dict",
    "lint_module", "lint_report_dict", "lint_report_from_dict",
    "lint_report_json", "lint_source", "resolve_slot", "solve", "type_range",
]
