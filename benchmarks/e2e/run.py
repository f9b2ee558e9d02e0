"""End-to-end benchmark of the Clou reproduction (see README.md).

    python3 benchmarks/e2e/run.py --workload litmus --seed 3 --trace 0
    python3 benchmarks/e2e/run.py                 # every workload in turn
    python3 benchmarks/e2e/run.py --smoke         # every workload, reduced
    python3 benchmarks/e2e/run.py --determinism   # seed-0 runs repeat

Each run of a workload is a fresh process (``workloads.py``) that
measures for ``run_seconds`` from ``BENCHMARK.json``.  With
``--trace 0`` a run reports the end-to-end metrics, in reference seconds
(``calibration.py``); set-up time is the median over five fresh
processes.  With ``--trace 1`` it reports the
per-layer metrics and writes a Chrome trace under ``benchmarks/e2e/out``.
A run prints a table of its metrics with units and sample counts, and
as its last line one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  It exits 1 when an output check fails or an
analysis request fails, and 2 when the repository is incomplete or
``--seconds`` differs from ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibration import REFERENCE_SECONDS
from spans import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("table2-crypto", "fig8-scaling", "litmus", "daemon-edit",
             "openssl-jobs2")
#: Fresh processes whose set-up time is measured per untraced run.
SETUP_SAMPLES = 5
#: A run that takes longer than this is killed with its daemons.
CHILD_LIMIT_SECONDS = 170.0
#: Per-layer metrics that must repeat exactly between runs of a seed.
EXACT_LAYERS = tuple(name for name, unit in PER_LAYER_UNITS.items()
                     if unit == "count") + ("sched.cache.hit_rate",)


class BenchmarkError(Exception):
    """A run could not produce measurements."""


def _environment() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if key not in ("REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_FAULTS")}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path
                                             else "")
    return env


def _child(workload: str, seed: int, seconds: float, trace: bool,
           smoke: bool, setup_only: bool = False
           ) -> tuple[float, dict | None]:
    """Run ``workloads.py`` once: ``(set-up seconds, result)``."""
    command = [sys.executable, str(HERE / "workloads.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    command += ["--smoke"] * smoke + ["--setup-only"] * setup_only
    setup = result = None
    started = time.perf_counter()
    # A session of its own, so a kill also stops the daemons it started.
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          env=_environment(), cwd=ROOT,
                          start_new_session=True) as process:
        watchdog = threading.Timer(
            CHILD_LIMIT_SECONDS, os.killpg, (process.pid, signal.SIGKILL))
        watchdog.start()
        try:
            for line in process.stdout:
                if line == "ready\n" and setup is None:
                    setup = time.perf_counter() - started
                elif line.startswith("result "):
                    result = json.loads(line[len("result "):])
        finally:
            watchdog.cancel()
    if process.returncode != 0 or setup is None or (
            result is None and not setup_only):
        raise BenchmarkError(f"{workload}: the workload process exited "
                             f"with code {process.returncode}")
    return setup, result


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _quantile(values: list[float], percent: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        percent - 1]


def _end_to_end(result: dict, setups: list[float]) -> dict:
    """name -> (value, unit, samples).  Times are in reference seconds
    (calibration.py) at the run's calibration; wall and latency are taken
    over each operation's typical time across the run's passes."""
    scale = result["scale"]
    typical = [scale * seconds for seconds in result["typical"]]
    samples = len(result["op_seconds"]) * len(typical)
    return {
        "setup_s": (scale * statistics.median(setups), "s", len(setups)),
        "wall_s": (sum(typical), "s", samples),
        "latency_p50_ms": (1000.0 * statistics.median(typical), "ms",
                           samples),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB", 1),
    }


def _per_layer(result: dict) -> dict:
    traced = result["passes"]["traced"]
    return {name: (value, PER_LAYER_UNITS[name], traced)
            for name, value in result["layers"].items()}


def _conformance(metrics: dict, declared: list[dict]) -> list[str]:
    """Differences between the metrics a run computed and the ones
    BENCHMARK.json declares (names and units)."""
    want = {entry["name"]: entry["unit"] for entry in declared}
    have = {name: unit for name, (_, unit, _) in metrics.items()}
    return [f"metric {name}: computed unit {have.get(name)!r}, declared "
            f"{want.get(name)!r}" for name in sorted(set(want) | set(have))
            if want.get(name) != have.get(name)]


def measure(workload: str, seed: int, seconds: float, trace: bool
            ) -> tuple[dict, dict, list[str]]:
    """One measured run: ``(result, metrics, problems)``."""
    setups = []
    if not trace:
        setups = [_child(workload, seed, seconds, trace, False,
                         setup_only=True)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
    setup, result = _child(workload, seed, seconds, trace, False)
    setups.append(setup)
    metrics = _per_layer(result) if trace else _end_to_end(result, setups)
    declared = _declared()["per_layer" if trace else "end_to_end"]
    problems = result["problems"] + _conformance(metrics, declared)
    return result, metrics, problems


def _report(result: dict, metrics: dict, problems: list[str]) -> None:
    """The human-readable table of one run."""
    mode = "traced" if result["trace"] else "untraced"
    size = " smoke" if result["smoke"] else ""
    passes = result["passes"]
    print(f"== {result['workload']}{size}  seed {result['seed']}  {mode}  "
          f"({passes['untraced']} untraced + {passes['traced']} traced "
          f"passes, {result['attempted']} requests, "
          f"{result['failed']} failed) ==")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit:6s} n={samples}")
    op_seconds = result["op_seconds"]
    ops = [value for times in op_seconds for value in times]
    kernel_ms = 1000.0 * REFERENCE_SECONDS / result["scale"]
    print(f"  calibration kernel {kernel_ms:.3f} ms (trimmed mean, "
          f"n={len(result['calibration'])}): {result['scale']:.3f} "
          f"reference s per measured s")
    print(f"  as measured: pass median "
          f"{statistics.median(sum(times) for times in op_seconds):.4f} s; "
          f"operation p50 {1000.0 * statistics.median(ops):.3f} ms, "
          f"p99 {1000.0 * _quantile(ops, 99):.3f} ms, n={len(ops)}")
    for engine, slope in result.get("loglog_slopes", {}).items():
        print(f"  log-log slope ({engine}): {slope:.3f}")
    recorded = result["digest_recorded"]
    verdict = ("matches the recorded seed-0 digest" if recorded ==
               result["digest"] else "no recorded digest for this seed"
               if recorded is None else "DIFFERS from the recorded digest")
    print(f"  digest {result['digest']} ({verdict})")
    print("  counts " + " ".join(f"{key}={value}"
                                 for key, value in result["counts"].items()))
    if result.get("absent"):
        print(f"  absent layers: {', '.join(result['absent'])}")
    if result.get("trace_file"):
        print(f"  chrome trace: {result['trace_file']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")


def _summary(result: dict, metrics: dict, problems: list[str]) -> dict:
    return {"correct": not problems, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in metrics.items()}}


def _selected(args) -> list[str]:
    return [args.workload] if args.workload else list(WORKLOADS)


def _measured(args) -> int:
    code = 0
    for workload in _selected(args):
        result, metrics, problems = measure(workload, args.seed,
                                            args.seconds, bool(args.trace))
        _report(result, metrics, problems)
        summary = _summary(result, metrics, problems)
        print(json.dumps(summary), flush=True)
        code |= not summary["correct"] or bool(summary["failed"])
    return code


def _smoke(args) -> int:
    """Every workload at reduced size in one traced run, which times an
    untraced and a traced pass: the names and units of both metric sets
    must match BENCHMARK.json and every check must pass."""
    started = time.perf_counter()
    declared = _declared()
    failures = 0
    for workload in _selected(args):
        began = time.perf_counter()
        setup, result = _child(workload, 0, args.seconds, True, True)
        metrics = {**_end_to_end(result, [setup]), **_per_layer(result)}
        problems = result["problems"] + _conformance(
            metrics, declared["end_to_end"] + declared["per_layer"])
        if result["failed"]:
            problems.append(f"{result['failed']} requests failed")
        failures += bool(problems)
        print(f"smoke {workload:14s} {'ok' if not problems else 'FAILED'}  "
              f"{len(metrics)} metrics, {time.perf_counter() - began:.1f} s,"
              f" digest {result['digest']}")
        for problem in problems:
            print(f"  CHECK FAILED: {problem}")
    print(f"smoke: {'ok' if not failures else f'{failures} runs failed'} "
          f"in {time.perf_counter() - started:.1f} s")
    return 1 if failures else 0


def _determinism(args) -> int:
    """Two untraced and two traced seed-0 runs of each workload: equal
    digests, equal scheduler counts, equal per-layer counts."""
    failures = 0
    for workload in _selected(args):
        runs = {trace: [measure(workload, 0, args.seconds, trace)
                        for _ in range(2)]
                for trace in (False, True)}
        problems = [problem for pair in runs.values()
                    for _, _, found in pair for problem in found]
        digests = {result["digest"] for pair in runs.values()
                   for result, _, _ in pair}
        if len(digests) != 1:
            problems.append(f"digests differ: {sorted(digests)}")
        first, second = (result for result, _, _ in runs[False])
        if first["counts"] != second["counts"]:
            problems.append(f"scheduler counts differ: {first['counts']} "
                            f"vs {second['counts']}")
        first, second = (metrics for _, metrics, _ in runs[True])
        for name in EXACT_LAYERS:
            if first[name][0] != second[name][0]:
                problems.append(f"{name} differs: {first[name][0]} vs "
                                f"{second[name][0]}")
        failures += bool(problems)
        print(f"determinism {workload:14s} "
              f"{'ok' if not problems else 'FAILED'}  digest "
              f"{digests.pop()[:16] if len(digests) == 1 else '-'}  "
              + " ".join(f"{name}={first[name][0]:g}"
                         for name in EXACT_LAYERS))
        for problem in problems:
            print(f"  CHECK FAILED: {problem}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the Clou reproduction.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted for the standard benchmark command "
                             "line; must equal run_seconds in "
                             "BENCHMARK.json, so every run measures as "
                             "long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced "
                             "run")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload reduced, untraced and traced")
    parser.add_argument("--determinism", action="store_true",
                        help="repeat seed-0 runs and compare their outputs "
                             "and counts")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or \
            not (ROOT / "BENCHMARK.json").is_file():
        print(f"run.py: {ROOT} does not hold the repro sources "
              f"(src/repro) and BENCHMARK.json", file=sys.stderr)
        return 2
    run_seconds = float(_declared()["run_seconds"])
    if args.seconds is not None and args.seconds != run_seconds:
        print(f"run.py: --seconds {args.seconds:g} differs from run_seconds "
              f"{run_seconds:g} in BENCHMARK.json", file=sys.stderr)
        return 2
    args.seconds = run_seconds
    try:
        if args.determinism:
            return _determinism(args)
        if args.smoke:
            return _smoke(args)
        return _measured(args)
    except BenchmarkError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
