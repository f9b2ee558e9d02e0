"""Scheduler speedup: serial vs. parallel vs. cached re-run.

Measures wall-clock for analyzing a synthetic OpenSSL-like translation
unit (many public functions, heavy-tailed sizes — the per-file shape of
Table 2's OpenSSL row) through :class:`ClouSession` at ``jobs=1``,
``jobs=4``, and a fully-cached second pass, and prints the speedup
table recorded in EXPERIMENTS.md.

The parallel speedup scales with physical cores; on a single-core
runner jobs=4 is expected to be ~1x (the numbers are printed, not
asserted — only the byte-identity of the reports is).

Run directly or via ``make bench-sched`` to also write
``benchmarks/BENCH_sched.json``, which records the pool's checkpoint
traffic and ``clou analyze --jobs 2`` against ``--jobs 1``:

- the checkpoint messages a pool worker sends over one pass of the
  end-to-end benchmark's ``openssl-jobs2`` units (seed 0): their count,
  the witnesses they carry and their pickled bytes;
- the median wall time of ``clou analyze --engine pht --json`` under
  ``--jobs 1`` and ``--jobs 2`` on the witness-heavy crypto files, with
  a check that both print the same bytes.  ``--baseline SRC`` times the
  same commands from another source tree (the ``src`` of a checkout of
  an earlier commit, whose id is recorded when it is a git checkout) and
  checks its output is identical too, and counts that tree's checkpoint
  messages as well.  The committed file holds these
  before/after columns, so regenerate it with a baseline::

    make bench-sched BASELINE=../old-checkout/src

Also collected by pytest for the speedup invariants.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.bench.suites import CORPUS_DIR  # noqa: E402
from repro.bench.synthetic import openssl_like_source  # noqa: E402
from repro.clou import ClouConfig  # noqa: E402
from repro.clou.serialize import to_json  # noqa: E402
from repro.sched import AnalysisRequest, ClouSession  # noqa: E402

CONFIG = ClouConfig(timeout_seconds=120.0)
N_FUNCTIONS = 24


def _run(jobs, cache_dir=None):
    session = ClouSession(config=CONFIG, jobs=jobs,
                          cache=cache_dir is not None, cache_dir=cache_dir)
    source = openssl_like_source(n_functions=N_FUNCTIONS, seed=23)
    started = time.monotonic()
    report = session.analyze(AnalysisRequest.analyze(source, engine="pht", name="openssl_like"))
    return report, time.monotonic() - started, session.stats


def scheduler_speedup_table():
    """Rows of (label, wall seconds, speedup vs serial, cache hit rate)."""
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        serial, t_serial, _ = _run(jobs=1)
        parallel, t_parallel, _ = _run(jobs=4)
        _run(jobs=4, cache_dir=cache_dir)           # populate
        cached, t_cached, stats = _run(jobs=4, cache_dir=cache_dir)
        assert to_json(serial, stable=True) == to_json(parallel, stable=True)
        assert to_json(serial, stable=True) == to_json(cached, stable=True)
        return [
            ("jobs=1 (serial)", t_serial, 1.0, None),
            ("jobs=4", t_parallel, t_serial / t_parallel, None),
            ("jobs=4 + warm cache", t_cached, t_serial / t_cached,
             stats.cache_hit_rate),
        ]
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def test_scheduler_speedup(benchmark):
    rows = benchmark.pedantic(scheduler_speedup_table, rounds=1, iterations=1)
    # Shape invariants only: outputs byte-agree (asserted inside), and a
    # warm cache must make the re-run nearly free regardless of cores.
    by_label = {label: (wall, speedup, hits)
                for label, wall, speedup, hits in rows}
    assert by_label["jobs=4 + warm cache"][2] > 0.9  # >90% hit rate
    assert by_label["jobs=4 + warm cache"][0] < by_label["jobs=1 (serial)"][0]


@pytest.mark.skipif(os.cpu_count() < 4, reason="needs >= 4 cores")
def test_parallel_speedup_on_multicore(benchmark):
    """The ISSUE's >= 2x acceptance bar, gated on actually having cores."""
    rows = benchmark.pedantic(scheduler_speedup_table, rounds=1, iterations=1)
    by_label = {label: speedup for label, _, speedup, _ in rows}
    assert by_label["jobs=4"] >= 2.0


#: Crypto files whose pht run is one long, witness-heavy item.
CLI_FILES = ("hmac", "chacha20", "mee_cbc", "donna")
#: Runs per CLI setting; the median is recorded.
REPEAT = 5


#: Counts the checkpoint messages a pool worker sends over one pass of
#: the ``openssl-jobs2`` units: ``_worker_loop`` runs each item over a
#: fake pipe end that pickles what it is sent.  It uses only names both
#: message formats share, so it also measures an older source tree.
_TRAFFIC = """
import json
import pickle
from repro.sched.scheduler import _worker_loop
from repro.sched.worker import execute_item, module_for
from workloads import OpensslJobs2

totals = {"messages": 0, "witnesses": 0, "bytes": 0}


class Conn:
    def __init__(self, payload):
        self.inbox = [None, (0, payload, None)]

    def recv(self):
        return self.inbox.pop()

    def send(self, message):
        if message[1] == "checkpoint":
            totals["messages"] += 1
            totals["witnesses"] += len(message[2]["witnesses"])
            totals["bytes"] += len(pickle.dumps(message))


for request in OpensslJobs2(seed=0, smoke=False).requests:
    module = module_for(request.source, request.name)
    for function in module.public_functions():
        _worker_loop(execute_item, Conn({
            "kind": "analyze", "source": request.source,
            "name": request.name, "function": function.name,
            "engine": request.engine,
            "config": request.config.to_dict()}))
print(json.dumps(totals))
"""


def checkpoint_traffic(src: Path) -> dict:
    """Checkpoint messages, witnesses sent and pickled bytes of one
    ``openssl-jobs2`` pass through the pool's worker loop of the source
    tree ``src``; the counts are exact."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(src),
                                         str(ROOT / "benchmarks" / "e2e")])
    done = subprocess.run([sys.executable, "-c", _TRAFFIC], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def _clou(src: Path, path: Path, jobs: int) -> tuple[float, bytes]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "analyze", str(path),
         "--engine", "pht", "--json", "--no-cache", "--jobs", str(jobs)],
        capture_output=True, env=env, check=False)
    return time.monotonic() - started, done.stdout


def cli_walls(baseline: Path | None) -> dict:
    """Median wall seconds of ``clou analyze`` per file and setting,
    the runs of each round interleaved."""
    trees = {"current": ROOT / "src"}
    if baseline is not None:
        trees["baseline"] = baseline
    rows = {}
    for name in CLI_FILES:
        path = CORPUS_DIR / "crypto" / f"{name}.c"
        walls: dict[str, list[float]] = {}
        outputs = set()
        for _ in range(REPEAT):
            for tree, src in trees.items():
                for jobs in (1, 2):
                    wall, stdout = _clou(src, path, jobs)
                    walls.setdefault(f"{tree}_jobs{jobs}_s", []).append(wall)
                    outputs.add(stdout)
        rows[name] = {key: round(statistics.median(values), 3)
                      for key, values in walls.items()}
        rows[name]["identical"] = len(outputs) == 1
        print(f"{name:9} " + " ".join(
            f"{key}={value}" for key, value in rows[name].items()))
    return rows


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit(src: Path) -> str | None:
    """The commit checked out at ``src``, or None outside a git tree."""
    done = subprocess.run(["git", "-C", str(src), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", type=Path, default=None,
                        help="another source tree to time the CLI from")
    parser.add_argument("--out", default=str(ROOT / "benchmarks" /
                                             "BENCH_sched.json"))
    args = parser.parse_args(argv)
    print(f"scheduler speedup — {N_FUNCTIONS} public functions, "
          f"engine=pht, {os.cpu_count()} cores")
    print(f"{'configuration':22s} {'wall':>8s} {'speedup':>8s} "
          f"{'cache':>7s}")
    print("-" * 49)
    for label, wall, speedup, hit_rate in scheduler_speedup_table():
        cache = f"{hit_rate * 100:.0f}%" if hit_rate is not None else "-"
        print(f"{label:22s} {wall:7.2f}s {speedup:7.2f}x {cache:>7s}")
    traffic = {"current": checkpoint_traffic(ROOT / "src")}
    if args.baseline is not None:
        traffic["baseline"] = checkpoint_traffic(args.baseline)
    for tree, totals in traffic.items():
        print(f"openssl-jobs2 pass, {tree}: " + " ".join(
            f"{key}={value}" for key, value in totals.items()))
    walls = cli_walls(args.baseline)
    command = "python benchmarks/bench_scheduler.py"
    if args.baseline is not None:
        command += " --baseline SRC"
    payload = {
        "benchmark": "sched_checkpoint_pipe",
        "command": command,
        "baseline": None if args.baseline is None else {
            "src": "SRC: the source tree given to --baseline",
            "commit": _commit(args.baseline)},
        "host": {"cpu": _cpu(), "cores": os.cpu_count(),
                 "python": platform.python_version()},
        "checkpoint_traffic": {
            "workload": "openssl-jobs2 units, seed 0, one pass",
            "messages": "what the worker loop sends up the pipe; each "
                        "carries the witnesses new since the previous one",
            "trees": "current: this checkout; baseline: the --baseline "
                     "source tree",
            **traffic,
        },
        "cli": {
            "command": "clou analyze FILE --engine pht --json --no-cache "
                       "--jobs N",
            "repeat": REPEAT,
            "statistic": "median wall seconds, settings interleaved",
            "trees": "current: this checkout; baseline: the --baseline "
                     "source tree",
            "files": walls,
        },
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    return 0 if all(row["identical"] for row in walls.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
