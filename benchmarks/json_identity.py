"""Byte-identity of ``clou analyze --json`` between two source trees.

Runs ``clou analyze FILE --engine all --json --no-cache`` for every C
file under ``src/repro/bench/corpus/``, once with the default config and
once per variant in ``VARIANTS``, from this checkout's ``src`` and from
the ``--baseline`` tree (the ``src`` of a checkout of another commit),
and compares stdout and exit code.  A change that must not alter any
report runs it against its parent commit::

    make json-identity BASELINE=../parent-checkout/src

It prints one line per difference and the total runtime, and exits 1
when any run differs.
"""

import argparse
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "src" / "repro" / "bench" / "corpus"
VARIANTS = (
    (),
    ("--no-range-pruning",),
    ("--no-addr-gep-filter",),
    ("--alias-prediction",),
    ("--classes", "udt,uct"),
)
#: Runs in flight at once, one CLI process each.
WORKERS = 2


def _env(src: Path) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    return env


def _clou(src: Path, path: Path, variant: tuple[str, ...]):
    """(stdout, exit code) of one run from the tree at ``src``."""
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "analyze", str(path),
         "--engine", "all", "--json", "--no-cache", *variant],
        capture_output=True, env=_env(src), check=False)
    return done.stdout, done.returncode


def _compare(baseline: Path, path: Path, variant: tuple[str, ...]):
    """A description of how the two trees differ on one run, or None."""
    current = _clou(ROOT / "src", path, variant)
    previous = _clou(baseline, path, variant)
    if current == previous:
        return None
    what = []
    if current[1] != previous[1]:
        what.append(f"exit {previous[1]} -> {current[1]}")
    if current[0] != previous[0]:
        what.append(f"stdout {len(previous[0])} -> {len(current[0])} bytes")
    name = path.relative_to(CORPUS)
    return f"DIFF {name} {' '.join(variant) or '(default)'}: " + \
        ", ".join(what)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", type=Path, required=True,
                        help="the source tree to compare against")
    args = parser.parse_args(argv)
    started = time.monotonic()
    runs = [(path, variant) for path in sorted(CORPUS.rglob("*.c"))
            for variant in VARIANTS]
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        results = list(pool.map(
            lambda run: _compare(args.baseline, *run), runs))
    differences = [result for result in results if result is not None]
    for line in differences:
        print(line)
    print(f"json-identity: {len(runs)} runs per tree "
          f"({len(runs) // len(VARIANTS)} files x {len(VARIANTS)} configs), "
          f"{len(differences)} differences, "
          f"{time.monotonic() - started:.1f} s")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
