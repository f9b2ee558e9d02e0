"""S-AEG construction micro-benchmark: the provenance-bucketed rf and the
change-driven (data.rf)* extension against the original algorithms.

For each function it builds the S-AEG with :class:`repro.clou.aeg.SAEG`
and with the test-only :class:`tests.clou.saeg_reference.ReferenceSAEG`
(the original quadratic rf scan and full-sweep extension), alternating
the two, and records the median time of every construction phase plus
the rf/dep counts.  It also checks that both produce the same ``rf``,
``deps`` and ``taint``.

    python benchmarks/bench_saeg_build.py              # writes BENCH_saeg.json
    python benchmarks/bench_saeg_build.py --repeat 3 --out /tmp/b.json

``make bench-saeg`` runs the first form.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.bench.suites import CORPUS_DIR  # noqa: E402
from repro.bench.synthetic import scaling_corpus  # noqa: E402
from repro.clou import SAEG, build_acfg  # noqa: E402
from repro.clou.alias import AliasAnalysis  # noqa: E402
from repro.minic import compile_c  # noqa: E402
from tests.clou.saeg_reference import ReferenceSAEG, saeg_facts  # noqa: E402

#: Construction phases in the order ``SAEG.__init__`` runs them; the
#: alias analysis is built first and handed in.
PHASES = ("_build_nodes", "_build_reachability", "_build_dataflow",
          "_build_rf", "_extend_through_memory")


def _inputs() -> list[tuple[str, object]]:
    """(label, A-CFG function) for donna, chacha20 and synth_60."""
    crypto = CORPUS_DIR / "crypto"
    sources = [
        ("donna", (crypto / "donna.c").read_text(), "curve25519_donna"),
        ("chacha20", (crypto / "chacha20.c").read_text(),
         "crypto_stream_chacha20_xor"),
        ("synth_60", scaling_corpus([60])[0][1], "synth_60"),
    ]
    return [(label, build_acfg(compile_c(source, name=label), name).function)
            for label, source, name in sources]


def _timed(cls: type) -> type:
    """A subclass of ``cls`` recording each phase's seconds in the
    instance's ``phases``."""
    def wrap(name):
        method = getattr(cls, name)

        def timed(self, *args, **kwargs):
            started = time.perf_counter()
            try:
                return method(self, *args, **kwargs)
            finally:
                self.phases[name] = time.perf_counter() - started

        return timed

    def __init__(self, *args, **kwargs):
        self.phases = {}
        cls.__init__(self, *args, **kwargs)

    namespace = {name: wrap(name) for name in PHASES}
    namespace["__init__"] = __init__
    return type(f"Timed{cls.__name__}", (cls,), namespace)


def _build(cls: type, function) -> tuple[object, dict[str, float]]:
    gc.collect()  # neither side pays for the other's garbage
    started = time.perf_counter()
    alias = AliasAnalysis(function)
    built = time.perf_counter()
    aeg = cls(function, alias=alias)
    phases = {"alias": built - started, **aeg.phases,
              "total": time.perf_counter() - started}
    return aeg, phases


def _median(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: round(statistics.median(s[key] for s in samples), 4)
            for key in samples[0]}


def measure(function, repeat: int) -> dict:
    current, reference = _timed(SAEG), _timed(ReferenceSAEG)
    new_samples, old_samples = [], []
    for _ in range(repeat):
        new, phases = _build(current, function)
        new_samples.append(phases)
        old, phases = _build(reference, function)
        old_samples.append(phases)
    new_median, old_median = _median(new_samples), _median(old_samples)
    new_facts = saeg_facts(new)
    return {
        "nodes": new.size,
        "rf_edges": len(new.rf),
        "temps": len(new.deps),
        "dep_entries": sum(len(chain) for chain in new.deps.values()),
        "tainted": sum(new.taint.values()),
        "identical": new_facts == saeg_facts(old)
        and list(new.deps) == list(old.deps),
        "reference_s": old_median,
        "current_s": new_median,
        "speedup": round(old_median["total"] / new_median["total"], 2),
        "speedup_without_alias": round(
            (old_median["total"] - old_median["alias"])
            / (new_median["total"] - new_median["alias"]), 2),
    }


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="builds per implementation (median; default 5)")
    parser.add_argument("--out", default=str(ROOT / "benchmarks" /
                                             "BENCH_saeg.json"))
    args = parser.parse_args(argv)
    results = {}
    for label, function in _inputs():
        results[label] = row = measure(function, args.repeat)
        print(f"{label:9} nodes={row['nodes']:6} rf={row['rf_edges']:6} "
              f"deps={row['dep_entries']:7} "
              f"reference={row['reference_s']['total']:.3f}s "
              f"current={row['current_s']['total']:.3f}s "
              f"speedup={row['speedup']}x "
              f"identical={row['identical']}")
    payload = {
        "benchmark": "saeg_build",
        "command": "python benchmarks/bench_saeg_build.py",
        "repeat": args.repeat,
        "statistic": "median seconds per phase over alternating builds",
        "reference": "tests/clou/saeg_reference.py (original algorithms)",
        "host": {"cpu": _cpu(), "python": platform.python_version()},
        "phases": ["alias", *PHASES, "total"],
        "functions": results,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    return 0 if all(row["identical"] for row in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
