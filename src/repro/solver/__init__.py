"""A from-scratch CDCL SAT stack: expressions, Tseitin CNF, solver."""

from repro.solver.cnf import CNF, TseitinEncoder, encode
from repro.solver.expr import (
    FALSE,
    TRUE,
    And,
    BoolExpr,
    Const,
    Not,
    Or,
    Var,
    at_most_one,
    conj,
    disj,
    exactly_one,
    iff,
    implies,
    neg,
    var,
)
from repro.solver.sat import (
    SatSolver,
    enumerate_models,
    solve_cnf,
)

__all__ = [
    "And",
    "BoolExpr",
    "CNF",
    "Const",
    "FALSE",
    "Not",
    "Or",
    "SatSolver",
    "TRUE",
    "TseitinEncoder",
    "Var",
    "at_most_one",
    "conj",
    "disj",
    "encode",
    "enumerate_models",
    "exactly_one",
    "iff",
    "implies",
    "neg",
    "solve_cnf",
    "var",
]
