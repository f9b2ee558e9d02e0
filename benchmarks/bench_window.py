"""§6.2.1 sliding windows: one reverse walk per (block, bound).

``SAEG.window`` memoizes the reverse block walk of each (anchor block,
bound) on the S-AEG, and FWD answers its distance queries from those
windows and its fence-free queries from per-block bitsets.  This script
writes ``benchmarks/BENCH_window.json`` with:

- the median wall time of ``clou analyze FILE --engine E --json
  --no-cache`` for the 10 crypto files under their Table-2 engines and
  under fwd, from this checkout and, with ``--baseline SRC``, from
  another source tree (the ``src`` of a checkout of an earlier commit),
  with a flag saying whether both print the same bytes.  A run that
  exceeds ``TIMEOUT`` seconds is recorded as ``null`` and not repeated;
- the window walks and distinct (S-AEG, block, bound) keys of one pass
  of the end-to-end benchmark's ``table2-crypto`` requests (seed 0), in
  both trees.

Regenerate the committed file with a baseline::

    make bench-window BASELINE=../old-checkout/src

The exit code is 1 when any file prints different bytes in the two
trees.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CRYPTO_DIR = ROOT / "src" / "repro" / "bench" / "corpus" / "crypto"
#: Runs per (tree, file, engine); the median is recorded.
REPEAT = 3
#: Seconds after which a run is abandoned (FWD on donna took over ten
#: minutes before the windows were shared).
TIMEOUT = 300


def window_counts() -> dict:
    """Window calls, walks and distinct keys of one ``table2-crypto``
    pass, in the tree on ``PYTHONPATH``."""
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    from repro.clou.aeg import SAEG
    from repro.sched import ClouSession
    from repro.sched.worker import clear_caches
    from workloads import Table2Crypto

    counts = {"window_calls": 0, "walks": 0}
    keys = set()   # holds the S-AEGs, so no id is reused
    window = SAEG.window
    walk = getattr(SAEG, "_block_window", None)

    def counted_window(self, anchor, bound):
        counts["window_calls"] += 1
        if walk is None:
            counts["walks"] += 1   # every call walks
        keys.add((self, anchor.block, bound))
        return window(self, anchor, bound)

    def counted_walk(self, label, bound):
        counts["walks"] += 1
        return walk(self, label, bound)

    SAEG.window = counted_window
    if walk is not None:
        SAEG._block_window = counted_walk
    session = ClouSession(jobs=1, cache=False)
    for requests in Table2Crypto(seed=0, smoke=False).files:
        clear_caches()
        session.run(requests)
    counts["distinct_keys"] = len(keys)
    return counts


def _env(src: Path) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    return env


def _counts(src: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--count"],
        capture_output=True, text=True, env=_env(src), check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _clou(src: Path, path: Path, engine: str):
    """(wall seconds, stdout, exit code) of one run, or None on timeout."""
    started = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "analyze", str(path),
             "--engine", engine, "--json", "--no-cache"],
            capture_output=True, env=_env(src), check=False,
            timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None
    return time.monotonic() - started, done.stdout, done.returncode


def cli_walls(baseline: Path | None) -> dict:
    """Median wall seconds per file, engine and tree, runs interleaved."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.bench.suites import crypto_cases

    trees = {"current": ROOT / "src"}
    if baseline is not None:
        trees["baseline"] = baseline
    rows = {}
    for case in crypto_cases():
        for engine in (*case.engines, "fwd"):
            walls: dict[str, list[float]] = {tree: [] for tree in trees}
            outputs = {}
            for _ in range(REPEAT):
                for tree, src in trees.items():
                    if tree in outputs and outputs[tree] is None:
                        continue   # timed out once: not repeated
                    run = _clou(src, CRYPTO_DIR / f"{case.name}.c", engine)
                    if run is None:
                        outputs[tree] = None
                        continue
                    wall, stdout, code = run
                    walls[tree].append(wall)
                    outputs[tree] = (stdout, code)
            row = {f"{tree}_s": round(statistics.median(values), 3)
                   if values and outputs[tree] is not None else None
                   for tree, values in walls.items()}
            finished = {output for output in outputs.values()
                        if output is not None}
            row["identical"] = len(finished) == 1 if \
                None not in outputs.values() else None
            rows[f"{case.name}/{engine}"] = row
            print(f"{case.name + '/' + engine:22} " + " ".join(
                f"{key}={value}" for key, value in row.items()), flush=True)
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
                        help="another source tree to compare against")
    parser.add_argument("--out", default=str(ROOT / "benchmarks" /
                                             "BENCH_window.json"))
    parser.add_argument("--count", action="store_true",
                        help=argparse.SUPPRESS)  # subprocess mode
    args = parser.parse_args(argv)
    if args.count:
        print(json.dumps(window_counts()))
        return 0
    trees = {"current": ROOT / "src"}
    if args.baseline is not None:
        trees["baseline"] = args.baseline
    counts = {tree: _counts(src) for tree, src in trees.items()}
    print("table2-crypto pass: " + json.dumps(counts))
    walls = cli_walls(args.baseline)
    command = "python benchmarks/bench_window.py"
    if args.baseline is not None:
        command += " --baseline SRC"
    payload = {
        "benchmark": "window_tables",
        "command": command,
        "baseline": None if args.baseline is None else {
            "src": "SRC: the source tree given to --baseline",
            "commit": _commit(args.baseline)},
        "host": {"cpu": _cpu(), "cores": os.cpu_count(),
                 "python": platform.python_version()},
        "windows": {
            "workload": "table2-crypto requests, seed 0, one pass",
            "walks": "reverse block walks run",
            "distinct_keys": "distinct (S-AEG, block, bound) of the "
                             "window calls",
            **counts,
        },
        "cli": {
            "command": "clou analyze FILE --engine E --json --no-cache",
            "repeat": REPEAT,
            "timeout_s": TIMEOUT,
            "statistic": "median wall seconds, trees interleaved; null: "
                         "a run exceeded timeout_s",
            "trees": "current: this checkout; baseline: the --baseline "
                     "source tree",
            "files": walls,
        },
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    return 0 if all(row["identical"] is not False
                    for row in walls.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
