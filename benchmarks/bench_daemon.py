"""Where a ``clou serve`` request spends its time, request by request.

Replays the end-to-end benchmark's ``daemon-edit`` stream (seed 0: the
12-function OpenSSL-shaped unit, three ``acc`` edits then one unchanged
re-send per group, one pass = 12 requests) through the steps the
daemon's dispatcher runs for one ``analyze`` op, and the client's, in
one process:

- ``decode``: ``AnalysisRequest.from_dict`` of the wire request;
- ``compile``: the ``compile_c`` call of a ``module_for`` miss, inside
  ``ClouSession.run`` (jobs 1, a fresh cache directory);
- ``run``: the rest of ``ClouSession.run``;
- ``encode``: the server's response encoder
  (``repro.serve.server.encode_result``; a tree without it encodes
  ``protocol.make_response(id, result=result.to_dict())``);
- ``send``: ``sendall`` of the line on a socket pair whose other end a
  thread drains;
- ``settle``: the server's per-reply hook
  (``repro.serve.server.settle_heap``; nothing in a tree without it);
- ``client``: ``protocol.decode_line`` of the line and
  ``AnalysisResult.from_dict`` of its result;

plus the time of the cyclic garbage collector's passes per generation
(``gc.callbacks``) inside each request.  The warm-up request (the
unedited unit on an empty cache) is not recorded.  Each response line
is hashed with its two wall-clock stats fields (``work_seconds``,
``wall_seconds``) zeroed; the run exits 1 if the trees' hashes or
hit/miss ledgers differ.

With ``--baseline SRC`` the same stream also runs against another source
tree (the ``src`` of a checkout of an earlier commit), alternating trees
``--repeat`` times; the committed ``benchmarks/BENCH_daemon.json`` holds
both.  Regenerate it with::

    make bench-daemon BASELINE=../old-checkout/src

Each measurement is a fresh interpreter with the tree on ``PYTHONPATH``.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STEPS = ("decode", "compile", "run", "encode", "send", "settle", "client")
GENERATIONS = (0, 1, 2)
#: The stats fields of a response that hold wall-clock seconds.
_TIMINGS = re.compile(rb'"(work_seconds|wall_seconds)":[^,}]*')


def line_digest(line: bytes) -> str:
    """sha256 of a response line with its wall-clock fields zeroed (a
    key name in quotes cannot occur inside a JSON string)."""
    return hashlib.sha256(_TIMINGS.sub(rb'"\1":0', line)).hexdigest()


class _CompileTimer:
    """Seconds spent in ``repro.minic.compile_c`` (``module_for`` looks
    it up on every miss)."""

    def __init__(self):
        import repro.minic

        self.seconds = 0.0
        self._compile = repro.minic.compile_c
        repro.minic.compile_c = self

    def __call__(self, *args, **kwargs):
        started = time.perf_counter()
        try:
            return self._compile(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - started


class _GCTimer:
    """Seconds and passes of the cyclic collector per generation."""

    def __init__(self):
        self.seconds = [0.0, 0.0, 0.0]
        self.passes = [0, 0, 0]
        self._started = None

    def __call__(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            generation = info["generation"]
            self.seconds[generation] += time.perf_counter() - self._started
            self.passes[generation] += 1
            self._started = None

    def read(self):
        return list(self.seconds), list(self.passes)


def measure(passes: int) -> dict:
    """Per-request step and GC times of ``passes`` passes of the stream,
    in the tree on ``PYTHONPATH``."""
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    from repro.sched import AnalysisRequest, AnalysisResult, ClouSession
    from repro.serve import protocol, server
    from workloads import (DaemonEdit, EditStream, OPENSSL_ROUNDS,
                           openssl_functions, request)

    encode = getattr(server, "encode_result", None) or (
        lambda id, result: protocol.encode(
            protocol.make_response(id, result=result.to_dict())))
    settle = getattr(server, "settle_heap", lambda: None)
    compiles = _CompileTimer()

    functions = openssl_functions(OPENSSL_ROUNDS[:DaemonEdit.FUNCTIONS], 0)
    small = [index for index, text in enumerate(functions)
             if text.count("state[") < DaemonEdit.SMALL_STATE_REFS]
    stream = EditStream(functions, small, 0)
    per_pass = len(stream.cycle)
    server_end, client_end = socket.socketpair()

    def drain():
        while client_end.recv(1 << 20):
            pass
    threading.Thread(target=drain, daemon=True).start()

    rows = []
    with tempfile.TemporaryDirectory() as cache_dir:
        session = ClouSession(jobs=1, cache=True, cache_dir=cache_dir)
        [warm] = session.run([request("\n\n".join(functions), "pht",
                                      "openssl_like.c")])
        encode(None, warm)
        del warm
        settle()
        timer = _GCTimer()
        gc.callbacks.append(timer)
        try:
            for number in range(passes * per_pass):
                source, edited = stream.next()
                wire = request(source, "pht", "openssl_like.c").to_dict()
                gc_before, passes_before = timer.read()
                compiled = compiles.seconds
                marks = {"start": time.perf_counter()}
                req = AnalysisRequest.from_dict(wire)
                marks["decode"] = time.perf_counter()
                [result] = session.run([req])
                marks["run"] = time.perf_counter()
                line = encode(number, result)
                marks["encode"] = time.perf_counter()
                server_end.sendall(line)
                marks["send"] = time.perf_counter()
                hits = result.stats.cache_hits
                misses = result.stats.cache_misses
                del result
                settle()
                marks["settle"] = time.perf_counter()
                received = AnalysisResult.from_dict(
                    protocol.decode_line(line)["result"])
                marks["client"] = time.perf_counter()
                gc_after, passes_after = timer.read()
                del received
                names = list(marks)
                steps = {later: marks[later] - marks[earlier]
                         for earlier, later in zip(names, names[1:])}
                steps["compile"] = compiles.seconds - compiled
                steps["run"] -= steps["compile"]
                rows.append({
                    "edited": edited,
                    "hits": hits,
                    "misses": misses,
                    "line": line_digest(line),
                    **{f"{step}_ms": 1000 * steps[step] for step in STEPS},
                    **{f"gc{g}_ms": 1000 * (gc_after[g] - gc_before[g])
                       for g in GENERATIONS},
                    **{f"gc{g}_passes": passes_after[g] - passes_before[g]
                       for g in GENERATIONS},
                })
        finally:
            gc.callbacks.remove(timer)
    server_end.close()
    return {"requests": rows}


def _env(src: Path) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    return env


def _measure_tree(src: Path, passes: int) -> list[dict]:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--measure",
         "--passes", str(passes)],
        capture_output=True, text=True, env=_env(src), check=True)
    return json.loads(done.stdout.splitlines()[-1])["requests"]


def _summary(rows: list[dict]) -> dict:
    """Mean per request of every column, and the total per request."""
    columns = [f"{step}_ms" for step in STEPS] \
        + [f"gc{g}_ms" for g in GENERATIONS]
    out = {column: round(statistics.fmean(r[column] for r in rows), 3)
           for column in columns}
    out["total_ms"] = round(statistics.fmean(
        sum(r[f"{step}_ms"] for step in STEPS) for r in rows), 3)
    out["median_total_ms"] = round(statistics.median(
        sum(r[f"{step}_ms"] for step in STEPS) for r in rows), 3)
    for g in GENERATIONS:
        out[f"gc{g}_passes"] = round(statistics.fmean(
            r[f"gc{g}_passes"] for r in rows), 3)
    return out


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
    parser.add_argument("--passes", type=int, default=5,
                        help="stream passes (12 requests each) per run")
    parser.add_argument("--repeat", type=int, default=2,
                        help="runs per tree, trees alternating")
    parser.add_argument("--out", default=str(ROOT / "benchmarks" /
                                             "BENCH_daemon.json"))
    parser.add_argument("--measure", action="store_true",
                        help=argparse.SUPPRESS)  # subprocess mode
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.passes)))
        return 0
    trees = {"current": ROOT / "src"}
    if args.baseline is not None:
        trees["baseline"] = args.baseline
    rows: dict[str, list[dict]] = {tree: [] for tree in trees}
    for _ in range(args.repeat):
        for tree, src in trees.items():
            rows[tree] += _measure_tree(src, args.passes)
    ledgers = {tree: [(r["hits"], r["misses"]) for r in tree_rows]
               for tree, tree_rows in rows.items()}
    lines = {tree: [r["line"] for r in tree_rows]
             for tree, tree_rows in rows.items()}
    results = {}
    for tree, tree_rows in rows.items():
        results[tree] = {
            "all": _summary(tree_rows),
            "edited": _summary([r for r in tree_rows if r["edited"]]),
            "unchanged": _summary([r for r in tree_rows
                                   if not r["edited"]]),
        }
        print(f"{tree}: " + json.dumps(results[tree]["all"]))
    command = "python benchmarks/bench_daemon.py"
    if args.baseline is not None:
        command += " --baseline SRC"
    payload = {
        "benchmark": "daemon_request_split",
        "command": command,
        "baseline": None if args.baseline is None else {
            "src": "SRC: the source tree given to --baseline",
            "commit": _commit(args.baseline)},
        "host": {"cpu": _cpu(), "cores": os.cpu_count(),
                 "python": platform.python_version()},
        "stream": "daemon-edit seed 0: 12-function OpenSSL-shaped unit, "
                  "9 edits and 3 unchanged re-sends per pass",
        "requests_per_tree": args.passes * 12 * args.repeat,
        "statistic": "mean per request in plain milliseconds (and mean "
                     "collector passes); total_ms and median_total_ms sum "
                     "the seven steps (server and client); gcN_ms is the "
                     "collector's time in generation N inside those "
                     "steps",
        "trees": "current: this checkout; baseline: the --baseline "
                 "source tree",
        "results": results,
        "same_hit_ledger": len({tuple(v) for v in ledgers.values()}) == 1,
        "same_response_lines": len({tuple(v)
                                    for v in lines.values()}) == 1,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    for check in ("same_hit_ledger", "same_response_lines"):
        if not payload[check]:
            print(f"{check}: false", file=sys.stderr)
    return 0 if payload["same_hit_ledger"] and \
        payload["same_response_lines"] else 1


if __name__ == "__main__":
    sys.exit(main())
