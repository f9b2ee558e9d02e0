"""Deterministic fault-injection sweep: degradation must be monotone.

For each corpus source this sweeps seeded fault plans over every
analysis injection site (``worker.item``, ``engine.candidate``) and
every action (crash / hang / memory / budget), runs the analysis
under each plan, and checks the three-valued verdict lattice against the
fault-free baseline:

- no function's verdict flips between ``leak`` and ``safe`` — a faulted
  run may only degrade toward ``unknown``;
- every witness the faulted run still *confirms* also exists in the
  fault-free run;
- a faulted run that reports ``safe`` must also report full coverage.

Crash/hang/memory plans run under ``--jobs 2`` (they kill the worker;
the scheduler's retry + checkpoint-resume machinery is the recovery
under test); budget plans run serially.  Exit status is non-zero on any
lattice violation.

Usage::

    python benchmarks/fault_sweep.py            # full sweep
    python benchmarks/fault_sweep.py --smoke    # the `make fault-smoke` subset
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.clou import ClouConfig  # noqa: E402
from repro.clou.serialize import witness_dict  # noqa: E402
from repro.sched import AnalysisRequest, ClouSession  # noqa: E402

CORPUS = os.path.join(os.path.dirname(__file__), "..", "src", "repro",
                      "bench", "corpus")

#: (engine, corpus-relative source) pairs the full sweep covers: the two
#: classic engines on crypto workloads, the FWD/PSF engines on the litmus
#: programs where they actually find leaks worth protecting.
FULL_SWEEPS = [
    ("pht", "crypto/tea.c"),
    ("pht", "crypto/hmac.c"),
    ("fwd", "fwd/fwd05.c"),
    ("fwd", "new/new01.c"),
    ("psf", "fwd/fwd02.c"),
    ("psf", "stl/stl01.c"),
]

SMOKE_SWEEPS = [
    ("pht", "crypto/tea.c"),
    ("fwd", "fwd/fwd01.c"),
    ("psf", "fwd/fwd02.c"),
]

#: (spec, parallel) sweep plans.  Parallel plans kill workers, so they
#: need the process pool (and its retry/resume machinery) to recover;
#: serial plans are cooperative.
PLANS = [
    ("seed=0;budget@engine.candidate%0.5", False),
    ("seed=1;budget@engine.candidate%0.5", False),
    ("seed=2;budget@engine.candidate#1", False),
    ("crash@engine.candidate#2", True),
    ("hang@engine.candidate#2", True),
    ("memory@engine.candidate#2", True),
    ("crash@worker.item#1", True),     # re-fires every respawn: permanent
    ("crash@worker.item#2", True),     # one crash, then recovery
    ("memory@worker.item#2", True),
    ("crash@engine.candidate#3", True),
    # Late: tea's checkpoint at candidate 40 carries 34 witnesses, so the
    # resume folds a witness-bearing checkpoint stream (the early plans
    # crash before any witness exists).
    ("crash@engine.candidate#40", True),
]

SMOKE_PLANS = [
    ("seed=0;budget@engine.candidate%0.5", False),
    ("crash@engine.candidate#2", True),
    ("hang@engine.candidate#2", True),
    ("crash@engine.candidate#40", True),
]


def _analyze(source: str, name: str, engine: str, spec: str | None,
             parallel: bool):
    config = ClouConfig(fault_spec=spec)
    if parallel:
        session = ClouSession(config, cache=False, jobs=2, timeout=20,
                              stall_timeout=2.0, retries=2)
    else:
        session = ClouSession(config, cache=False, jobs=1)
    return session.analyze(AnalysisRequest.analyze(source, engine=engine, name=name))


def _witness_key(witness) -> str:
    data = {k: v for k, v in witness_dict(witness).items()
            if k != "confirmed"}
    return json.dumps(data, sort_keys=True)


def check_lattice(baseline, faulted) -> list[str]:
    """Lattice violations of ``faulted`` against the fault-free
    ``baseline`` (empty = the degradation was monotone)."""
    violations = []
    reference = {r.function: r for r in baseline.functions}
    for report in faulted.functions:
        clean = reference.get(report.function)
        if clean is None:
            violations.append(f"{report.function}: missing from baseline")
            continue
        pair = (clean.verdict, report.verdict)
        if pair in (("leak", "safe"), ("safe", "leak")):
            violations.append(
                f"{report.function}: verdict flipped "
                f"{clean.verdict} -> {report.verdict}")
        if report.verdict == "safe" and not report.complete:
            violations.append(
                f"{report.function}: SAFE with degraded coverage")
        allowed = {_witness_key(w) for w in clean.transmitters()}
        for witness in report.transmitters():
            if witness.confirmed and _witness_key(witness) not in allowed:
                violations.append(
                    f"{report.function}: confirmed "
                    f"{witness.klass.value} witness absent from the "
                    "fault-free run")
    return violations


def sweep(sweeps: list[tuple[str, str]], plans) -> int:
    failures = 0
    for engine, path in sweeps:
        name = os.path.basename(path)
        with open(path) as handle:
            source = handle.read()
        baseline = _analyze(source, name, engine, None, parallel=False)
        print(f"{name} [{engine}]: baseline verdict={baseline.verdict} "
              f"functions={len(baseline.functions)}")
        for spec, parallel in plans:
            started = time.monotonic()
            faulted = _analyze(source, name, engine, spec, parallel)
            elapsed = time.monotonic() - started
            violations = check_lattice(baseline, faulted)
            mode = "jobs=2" if parallel else "serial"
            status = "ok" if not violations else "LATTICE VIOLATION"
            print(f"  [{mode:<6}] {spec:<38} verdict={faulted.verdict:<7} "
                  f"{elapsed:5.1f}s  {status}")
            for violation in violations:
                print(f"    !! {violation}")
            failures += len(violations)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="the fast CI subset (three engine/source "
                             "pairs, four plans)")
    parser.add_argument("--sources", nargs="*", default=None,
                        help="corpus files to sweep (default: the "
                             "engine/source matrix)")
    parser.add_argument("--engine", default="pht",
                        help="engine for --sources sweeps (default: pht)")
    args = parser.parse_args(argv)
    if args.sources:
        sweeps = [(args.engine, path) for path in args.sources]
    elif args.smoke:
        sweeps = [(engine, os.path.join(CORPUS, rel))
                  for engine, rel in SMOKE_SWEEPS]
    else:
        sweeps = [(engine, os.path.join(CORPUS, rel))
                  for engine, rel in FULL_SWEEPS]
    plans = SMOKE_PLANS if args.smoke else PLANS
    failures = sweep(sweeps, plans)
    if failures:
        print(f"fault sweep: {failures} lattice violation(s)")
        return 1
    print("fault sweep: no LEAK<->SAFE flips under any injected fault")
    return 0


if __name__ == "__main__":
    sys.exit(main())
