"""The seeded differential-fuzzing loop behind ``clou fuzz``.

Each iteration derives a per-input seed from the master seed, generates
one input (alternating mini-C and litmus programs; C inputs alternate
between the interpretable and analysis profiles), and applies every
selected oracle whose kind matches, honoring per-oracle ``period``
rate limits.  The schedule is a pure function of ``(seed, iteration)``,
so a run is reproducible even when a wall-clock budget truncates it —
iteration *k* fuzzes the same input regardless of how the previous
iterations were timed.

On an oracle violation the failing input is greedily shrunk
(:mod:`repro.fuzz.shrink`) under a predicate that re-validates the
candidate (compiles/parses) and re-runs the same oracle, then written
to the corpus directory as a reproducer (:mod:`repro.fuzz.corpus`).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.fuzz.corpus import Reproducer, write_reproducer
from repro.fuzz.gen_c import GeneratedC, generate_c
from repro.fuzz.gen_litmus import GeneratedLitmus, generate_litmus
from repro.fuzz.oracles import Oracle, OracleSkip, oracles_for
from repro.fuzz.shrink import shrink_source

__all__ = ["FuzzFailure", "FuzzReport", "run_fuzz"]


@dataclass(frozen=True)
class FuzzFailure:
    """One oracle violation, post-shrink."""

    oracle: str
    kind: str
    seed: int
    iteration: int
    message: str
    source: str                 # shrunk source text
    original_lines: int
    shrunk_lines: int
    reproducer_path: str = ""   # "" when no corpus directory was given


@dataclass
class FuzzReport:
    """The outcome of one fuzz run."""

    seed: int
    iterations_requested: int
    iterations_run: int = 0
    elapsed: float = 0.0
    checks: dict[str, int] = field(default_factory=dict)
    skips: dict[str, int] = field(default_factory=dict)
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"fuzz: seed={self.seed} "
            f"iterations={self.iterations_run}/{self.iterations_requested} "
            f"violations={len(self.failures)} elapsed={self.elapsed:.1f}s",
        ]
        for name in sorted(self.checks):
            lines.append(
                f"  {name:<20} checks={self.checks[name]:<5} "
                f"skips={self.skips.get(name, 0):<4} "
                f"failures={sum(1 for f in self.failures if f.oracle == name)}")
        for failure in self.failures:
            where = failure.reproducer_path or "(no corpus dir)"
            lines.append(
                f"  FAIL {failure.oracle} iteration={failure.iteration}: "
                f"{failure.message}")
            lines.append(
                f"       shrunk {failure.original_lines} -> "
                f"{failure.shrunk_lines} lines; reproducer: {where}")
        return "\n".join(lines)


#: Even iterations rotate through the C generator's profiles; odd
#: iterations generate litmus programs.  Pure in (seed, iteration).
_C_PROFILES = ("interpretable", "analysis", "conformance")


def _input_for(seed: int, iteration: int) -> GeneratedC | GeneratedLitmus:
    item_seed = seed * 1_000_003 + iteration
    if iteration % 2 == 0:
        return generate_c(item_seed,
                          profile=_C_PROFILES[(iteration // 2)
                                              % len(_C_PROFILES)])
    return generate_litmus(item_seed)


def _candidate_input(generated, source: str):
    """Rebuild an oracle input from shrunk candidate source, or None
    when the candidate is not structurally valid."""
    if isinstance(generated, GeneratedC):
        from repro.minic import compile_c

        try:
            compile_c(source, name="fuzz")
        except Exception:
            return None
        return dataclasses.replace(generated, source=source)
    from repro.litmus import parse_program

    try:
        program = parse_program(source, name=generated.program.name)
    except Exception:
        return None
    return dataclasses.replace(generated, program=program, source=source)


def _shrink(oracle: Oracle, generated, max_attempts: int) -> str:
    def still_fails(candidate_source: str) -> bool:
        candidate = _candidate_input(generated, candidate_source)
        if candidate is None:
            return False
        try:
            return oracle.check(candidate) is not None
        except OracleSkip:
            return False
        except Exception:
            return False  # a crash is a different bug; don't slip onto it

    return shrink_source(generated.source, still_fails,
                         max_attempts=max_attempts)


def run_fuzz(seed: int = 0, iterations: int = 100,
             time_budget: float | None = None,
             oracle_names: tuple[str, ...] | None = None,
             corpus_dir: str | None = None, shrink: bool = True,
             max_failures: int = 5, shrink_attempts: int = 400,
             log: Callable[[str], None] | None = None) -> FuzzReport:
    """Run the differential fuzz loop; see the module docstring.

    ``time_budget`` (seconds) truncates the run; ``max_failures`` stops
    it early once that many violations have been shrunk and recorded.
    """
    oracles = oracles_for(tuple(oracle_names) if oracle_names else None)
    report = FuzzReport(seed=seed, iterations_requested=iterations)
    matches: dict[str, int] = {oracle.name: 0 for oracle in oracles}
    started = time.monotonic()
    for iteration in range(iterations):
        if time_budget is not None \
                and time.monotonic() - started > time_budget:
            if log:
                log(f"fuzz: time budget ({time_budget:.0f}s) exhausted "
                    f"after {iteration} iterations")
            break
        generated = _input_for(seed, iteration)
        for oracle in oracles:
            if oracle.kind != generated.kind:
                continue
            if oracle.profile \
                    and getattr(generated, "profile", "") != oracle.profile:
                continue
            matches[oracle.name] += 1
            if (matches[oracle.name] - 1) % oracle.period:
                continue
            report.checks[oracle.name] = \
                report.checks.get(oracle.name, 0) + 1
            try:
                message = oracle.check(generated)
            except OracleSkip:
                report.skips[oracle.name] = \
                    report.skips.get(oracle.name, 0) + 1
                continue
            if message is None:
                continue
            if log:
                log(f"fuzz: {oracle.name} violated at iteration "
                    f"{iteration}: {message}")
            source = generated.source
            if shrink:
                source = _shrink(oracle, generated, shrink_attempts)
            failure = _record(report, oracle, generated, iteration,
                              message, source, corpus_dir)
            if log and failure.reproducer_path:
                log(f"fuzz: reproducer written to "
                    f"{failure.reproducer_path}")
        report.iterations_run = iteration + 1
        if len(report.failures) >= max_failures:
            if log:
                log(f"fuzz: stopping after {max_failures} failures")
            break
    report.elapsed = time.monotonic() - started
    return report


def _record(report: FuzzReport, oracle: Oracle, generated, iteration: int,
            message: str, source: str,
            corpus_dir: str | None) -> FuzzFailure:
    original_lines = len(generated.source.splitlines())
    shrunk_lines = len(source.splitlines())
    path = ""
    if corpus_dir is not None:
        extra = None
        if oracle.sidecar is not None:
            # Recompute the structured evidence on the shrunk source, so
            # the sidecar describes the reproducer it sits next to.
            candidate = _candidate_input(generated, source) or generated
            try:
                extra = oracle.sidecar(candidate)
            except Exception:
                extra = None
        reproducer = Reproducer(
            oracle=oracle.name, kind=generated.kind, seed=generated.seed,
            iteration=iteration, message=message, source=source,
            original_lines=original_lines, shrunk_lines=shrunk_lines,
            entry=getattr(generated, "entry", ""),
            params=getattr(generated, "params", ()),
            secrets=getattr(generated, "secrets", ()),
            interpretable=getattr(generated, "interpretable", True),
            profile=getattr(generated, "profile", ""),
            extra=extra)
        path = write_reproducer(corpus_dir, reproducer)
    failure = FuzzFailure(
        oracle=oracle.name, kind=generated.kind, seed=generated.seed,
        iteration=iteration, message=message, source=source,
        original_lines=original_lines, shrunk_lines=shrunk_lines,
        reproducer_path=path)
    report.failures.append(failure)
    return failure
