"""SAT solver benchmarks: the Z3 substitute must stay fast enough for
subrosa's relational encodings.

Besides the pytest-benchmark micro-benchmarks, this module carries the
incremental-vs-fresh ablation (``solver_ablation``): the same query
stream over subrosa's ``XWitnessEncoder`` answered by its long-lived
assumption-based solver and by the fresh-solver-per-query reference
paths.  ``python benchmarks/bench_solver.py`` (or ``make bench-solver``)
prints the table and writes the machine-readable baseline to
``benchmarks/BENCH_solver.json``; ``--smoke`` runs the fast CI check
that both paths agree on a short stream.
"""

import json
import os
import random
import sys
import time

import pytest

from repro.solver import SatSolver, encode, exactly_one, var


def _pigeonhole(pigeons, holes):
    solver = SatSolver(pigeons * holes)

    def index(p, h):
        return p * holes + h + 1

    for p in range(pigeons):
        solver.add_clause([index(p, h) for h in range(holes)])
    for h in range(holes):
        for i in range(pigeons):
            for j in range(i + 1, pigeons):
                solver.add_clause([-index(i, h), -index(j, h)])
    return solver


def test_pigeonhole_unsat(benchmark):
    def run():
        return _pigeonhole(7, 6).solve()

    assert benchmark(run) is None


def test_random_3sat(benchmark):
    rng = random.Random(1234)
    num_vars, num_clauses = 120, 480
    clauses = [
        [v if rng.random() < 0.5 else -v
         for v in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(num_clauses)
    ]

    def run():
        solver = SatSolver(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        return solver.solve()

    model = benchmark(run)
    if model is not None:
        for clause in clauses:
            assert any((lit > 0) == model[abs(lit)] for lit in clause)


def test_exactly_one_grid(benchmark):
    """A Latin-square-ish encoding through the Tseitin pipeline."""

    def run():
        cells = [[var(f"c{r}{c}v{v}") for v in range(4)]
                 for r in range(4) for c in range(4)]
        formula = None
        for cell in cells:
            constraint = exactly_one(cell)
            formula = constraint if formula is None else formula & constraint
        cnf = encode(formula)
        return SatSolver.from_cnf(cnf).solve()

    assert benchmark(run) is not None


# ----------------------------------------------------------------------
# Incremental-vs-fresh ablation
# ----------------------------------------------------------------------

REPEATS = 3
SMOKE_MODELS = 120    # enumeration cap for the smoke run


def _subrosa_workload(repeats=REPEATS, limit=10_000):
    """subrosa's shape: partial-instance require/forbid queries plus
    repeated enumerations (of at most ``limit`` models) over one litmus
    execution."""
    from repro.lcm.xstate import DirectMappedPolicy
    from repro.litmus import elaborate, parse_program
    from repro.mcm import TSO, consistent_executions
    from repro.subrosa.encoding import XWitnessEncoder

    source = "store x, 1\nstore x, 2\nr1 = load x\nr2 = load x"
    (structure,) = elaborate(parse_program(source, name="bench"))
    execution = consistent_executions(structure, TSO)[0]

    def run(encoder, solve, enumerate_models):
        verdicts = []
        for _ in range(repeats):
            for edge in encoder.candidate_edges():
                verdicts.append(solve(require=[edge]) is None)
                verdicts.append(solve(forbid=[edge]) is None)
            verdicts.append(sum(1 for _ in enumerate_models(limit)))
        return verdicts

    fresh_encoder = XWitnessEncoder(execution, DirectMappedPolicy())
    started = time.perf_counter()
    fresh = run(fresh_encoder, fresh_encoder.solve_fresh,
                fresh_encoder.enumerate_fresh)
    t_fresh = time.perf_counter() - started

    encoder = XWitnessEncoder(execution, DirectMappedPolicy())
    started = time.perf_counter()
    incremental = run(encoder, encoder.solve, encoder.enumerate)
    t_incremental = time.perf_counter() - started

    assert incremental == fresh
    return {"name": "subrosa/enumerate+queries", "queries": len(fresh),
            "fresh_seconds": t_fresh, "incremental_seconds": t_incremental}


def solver_ablation():
    """All ablation rows; each row's speedup = fresh / incremental."""
    rows = [_subrosa_workload()]
    for row in rows:
        row["speedup"] = row["fresh_seconds"] / row["incremental_seconds"]
    return rows


def test_incremental_vs_fresh_ablation(benchmark):
    """The ISSUE's acceptance bar: >= 2x on every repeated-query stream
    (verdict agreement is asserted inside the workloads)."""
    rows = benchmark.pedantic(solver_ablation, rounds=1, iterations=1)
    for row in rows:
        assert row["speedup"] >= 2.0, (
            f"{row['name']}: only {row['speedup']:.2f}x over "
            f"{row['queries']} queries")


def smoke():
    """Fast CI check on the SAT path that remains, subrosa's
    XWitnessEncoder: one pass of require/forbid queries and a bounded
    enumeration must give the same verdicts and model counts on the
    persistent solver as on a fresh solver per query."""
    row = _subrosa_workload(repeats=1, limit=SMOKE_MODELS)
    print(f"bench-smoke: ok — {row['queries']} subrosa queries agree "
          f"(incremental {row['incremental_seconds']:.2f}s, fresh "
          f"{row['fresh_seconds']:.2f}s)")
    return 0


def main():
    if "--smoke" in sys.argv[1:]:
        return smoke()
    rows = solver_ablation()
    print("incremental vs fresh-per-query — same streams, both modes")
    print(f"{'workload':28s} {'queries':>7s} {'fresh':>9s} "
          f"{'incr':>9s} {'speedup':>8s}")
    print("-" * 65)
    for row in rows:
        print(f"{row['name']:28s} {row['queries']:7d} "
              f"{row['fresh_seconds']:8.3f}s "
              f"{row['incremental_seconds']:8.3f}s "
              f"{row['speedup']:7.1f}x")
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "BENCH_solver.json")
    with open(out, "w") as handle:
        json.dump({"benchmark": "solver_incremental_ablation",
                   "repeats": REPEATS, "workloads": rows}, handle, indent=2)
        handle.write("\n")
    print(f"baseline written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
