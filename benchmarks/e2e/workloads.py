"""The five workloads of the end-to-end benchmark, one per process.

``run.py`` starts this script for every measured run, with ``src/`` on
``PYTHONPATH`` and ``REPRO_JOBS``, ``REPRO_CACHE_DIR`` and
``REPRO_FAULTS`` removed from the environment::

    python3 benchmarks/e2e/workloads.py --workload W --seed N \\
        --seconds S --trace 0|1 [--smoke] [--setup-only]

The script builds its inputs from the seed, sets up (sessions, daemons,
warm-up) and prints ``ready``; ``run.py`` times process start to that
line as set-up time.  ``--setup-only`` exits there.
Otherwise it repeats whole passes of the workload while the next pass is
expected to end within ``S`` seconds -- at least :data:`MIN_PASSES`;
with ``--trace 1`` at least two, alternating untraced and traced; with
``--smoke`` one -- checks every output, and prints one line
``result <json>``.

A pass is a fixed list of operations, each one short timed call (one
request or one round trip, at most about a second), and every pass runs
the same operations in the same order.  The run reports each
operation's typical time, the trimmed mean over its untraced passes,
and the calibration that turns it, and the set-up time, into reference
seconds.

Every workload uses Table 2's Clou configuration.  The seed changes only
generated inputs: the crypto and litmus corpora are fixed files, so on
those workloads every seed measures the same inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.fig8 import Fig8Point, loglog_slope
from repro.bench.suites import all_litmus, crypto_cases
from repro.bench.synthetic import (fwd_corpus, generate_function,
                                   openssl_like_source, scaling_corpus)
from repro.clou import ClouConfig, serialize
from repro.errors import AnalysisError
from repro.lcm.taxonomy import TransmitterClass
from repro.sched import AnalysisRequest, ClouSession, worker
from repro.serve import ClouClient, DaemonBusy, DaemonUnreachable

from calibration import Calibration, trimmed_mean
from spans import Tracer, layer_metrics, load_dump, write_chrome_trace

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

#: Table 2's Clou configuration (ROB/LSQ 250/50, §6).
CONFIG = ClouConfig(rob_size=250, lsq_size=50, window_size=250,
                    timeout_seconds=120.0)

#: Fewest untraced passes of a measured run.  Passes are sized (about 4 s
#: at most on a 2-vCPU Xeon) so that more than this many fit in
#: ``run_seconds``.
MIN_PASSES = 3

#: Function sizes (rounds) of ``openssl_like_source(24, seed=23)``.  The
#: benchmark seed varies function contents but keeps these sizes, so
#: every seed measures a comparable amount of work; at seed 0 the
#: sources equal ``openssl_like_source`` byte for byte (checked).
OPENSSL_ROUNDS = (30, 17, 6, 10, 5, 2, 9, 18, 9, 10, 8, 2,
                  2, 4, 7, 7, 132, 7, 9, 9, 9, 4, 4, 10)

_ACC_INIT = re.compile(r"uint64_t acc = \d+;")


def request(source: str, engine: str, name: str) -> AnalysisRequest:
    return AnalysisRequest.analyze(source, engine=engine, name=name,
                                   config=CONFIG)


def openssl_functions(rounds: tuple[int, ...], seed: int) -> list[str]:
    return [generate_function(f"ossl_fn_{index:03d}", size,
                              seed=23 + seed + index)
            for index, size in enumerate(rounds)]


@dataclass
class Pass:
    """One pass of a workload: what was timed and what it produced."""

    traced: bool
    calibration: Calibration
    wall: float = 0.0                 # summed time of the timed calls
    ops: list[float] = field(default_factory=list)    # time of each operation
    overheads: list[float] = field(default_factory=list)  # call - run wall
    outputs: list[str] = field(default_factory=list)  # stable --json, in order
    reports: list = field(default_factory=list)       # (request, report)
    points: list = field(default_factory=list)  # (name, engine, S-AEG nodes)
    problems: list[str] = field(default_factory=list)
    requests: int = 0
    failed: int = 0
    work: float = 0.0                 # summed worker seconds of the items
    counts: dict[str, int] = field(default_factory=dict)
    digest: str = ""

    def seal(self) -> None:
        """Digest the outputs and drop them with the reports, so memory
        use does not grow with the number of passes."""
        if self.digest:
            return
        self.digest = hashlib.sha256(
            "\n".join(self.outputs).encode("utf-8")).hexdigest()
        self.outputs = []
        self.reports = []

    def record(self, results, seconds: float) -> None:
        """Account one timed call that returned ``results``."""
        self.wall += seconds
        self.overheads.append(
            seconds - max(result.stats.wall_seconds for result in results))
        for result in results:
            report = result.report
            self.requests += 1
            if (result.error is not None or report is None
                    or result.stats.crashes
                    or any(function.error is not None or function.timed_out
                           for function in report.functions)):
                self.failed += 1
            self.outputs.append(
                serialize.to_json(report, stable=True) if report is not None
                else f"error: {result.error}")
            self.reports.append((result.request, report))
            self.work += result.stats.work_seconds
            for key, value in (("items", result.stats.items),
                               ("candidates", result.stats.candidates),
                               ("cache_hits", result.stats.cache_hits),
                               ("cache_misses", result.stats.cache_misses)):
                self.counts[key] = self.counts.get(key, 0) + value

    def time(self, call):
        """Run one operation, record its time and return its result.  The
        calibration kernel runs first, when it is due."""
        self.calibration.sample()
        started = time.perf_counter()
        try:
            return call()
        finally:
            self.ops.append(time.perf_counter() - started)

    def timed(self, session: ClouSession, requests: list) -> None:
        results = self.time(lambda: session.run(requests))
        self.record(results, self.ops[-1])


class Workload:
    """Inputs, set-up and one repeatable pass of a workload."""

    name = ""
    #: Traced runs alternate untraced and traced passes of the workload;
    #: otherwise :meth:`reference` supplies the traced pass.
    alternates = True
    #: Worker processes of the timed session.
    jobs = 1

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.calibration = Calibration(self.jobs)

    def new_pass(self, traced: bool) -> Pass:
        return Pass(traced, self.calibration)

    def start(self, trace: bool) -> None:
        self.session = ClouSession(config=CONFIG, jobs=1, cache=False)

    def run_pass(self, traced: bool) -> Pass:
        raise NotImplementedError

    def reference(self, tracer: Tracer | None) -> list[Pass]:
        """Untimed passes run after the timed ones, for cross-checks."""
        return []

    def check(self, first: Pass) -> list[str]:
        """Known-answer checks on the first pass."""
        return []

    def close(self) -> list[dict]:
        """Stop what :meth:`start` started; returns tracer dumps of
        traced child processes."""
        return []


class Table2Crypto(Workload):
    """Table 2's crypto rows except curve25519-donna and chacha20: 8
    corpus files, each under its Table-2 engines in one serial, uncached
    ``session.run``, as ``clou analyze`` runs one file.  An operation is
    one file.  Donna (about 5 s) and chacha20 (about 1.4 s) are left
    out, so a pass is short enough to repeat several times in a run."""

    name = "table2-crypto"
    FILES = ("tea", "secretbox", "ssl3_digest", "mee_cbc", "sigalgs",
             "sodium_misc", "poly1305", "hmac")
    SMOKE = ("tea", "sigalgs", "sodium_misc")
    # (file, engine) -> the UDT count Table 2 reports: exact, or at least.
    EXPECTED_UDT = {("tea", "pht"): (0, 0), ("secretbox", "pht"): (0, 0),
                    ("sigalgs", "pht"): (1, None),
                    ("sodium_misc", "stl"): (1, None)}

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        files = self.SMOKE if smoke else self.FILES
        self.files = [[request(case.source, engine, case.name)
                       for engine in case.engines]
                      for case in crypto_cases() if case.name in files]

    def run_pass(self, traced: bool) -> Pass:
        step = self.new_pass(traced)
        for requests in self.files:
            worker.clear_caches()
            step.timed(self.session, requests)
        return step

    def check(self, first: Pass) -> list[str]:
        problems = []
        for req, report in first.reports:
            bounds = self.EXPECTED_UDT.get((req.name, req.engine))
            if bounds is None or report is None:
                continue
            udt = report.total(TransmitterClass.UNIVERSAL_DATA)
            low, high = bounds
            if udt < low or (high is not None and udt > high):
                problems.append(f"{req.name}/{req.engine}: {udt} UDT, "
                                f"expected {low}" + ("" if high is not None
                                                     else " or more"))
        return problems


class Fig8Scaling(Workload):
    """Fig. 8's size curve: the synthetic scaling corpus under pht and
    stl plus the forward-gadget corpus under fwd and psf, one request
    per operation, with the in-process S-AEG cache cleared before each
    so every engine builds its own graph, as Fig. 8 counts it."""

    name = "fig8-scaling"
    #: ``scaling_corpus``'s default sizes up to 60 rounds.  The 140-round
    #: function takes 2 s under pht and stl, and alone would set the
    #: noise of the whole pass.
    SIZES = [2, 5, 10, 25, 60]
    #: ``fwd_corpus``'s default sizes without 24, which takes 1.7 s
    #: under fwd.
    FWD_SIZES = [4, 10]

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        sizes = [2, 5, 10, 25] if smoke else self.SIZES
        self.requests = [
            request(source, engine, name)
            for name, source in scaling_corpus(sizes, seed=7 + seed)
            for engine in ("pht", "stl")
        ] + [
            request(source, engine, name)
            for name, source in fwd_corpus(self.FWD_SIZES, seed=7 + seed)
            for engine in ("fwd", "psf")
        ]

    def run_pass(self, traced: bool) -> Pass:
        step = self.new_pass(traced)
        for req in self.requests:
            worker.clear_caches()
            step.timed(self.session, [req])
            report = step.reports[-1][1]
            nodes = (report.functions[0].aeg_size
                     if report is not None and report.functions else None)
            step.points.append((req.name, req.engine, nodes))
        return step


class Litmus(Workload):
    """The 36 litmus programs x their suite engines, one ``session.run``
    per analysis; the S-AEG cache is cleared before each pass."""

    name = "litmus"

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.cases = all_litmus()
        self.requests = [request(case.source, engine, case.name)
                         for case in self.cases for engine in case.engines]

    def run_pass(self, traced: bool) -> Pass:
        worker.clear_caches()
        step = self.new_pass(traced)
        for req in self.requests:
            step.timed(self.session, [req])
        return step

    def check(self, first: Pass) -> list[str]:
        leaky = {req.name for req, report in first.reports
                 if report is not None and report.verdict == "leak"}
        return [f"{case.name}: intended leaky but no engine reports a leak"
                for case in self.cases
                if case.intended_leaky and case.name not in leaky]


class Daemon:
    """One ``clou serve`` subprocess (jobs 1, its own empty cache
    directory) and one client connection to it.  ``traced`` runs it
    through ``serve_traced.py``, which records spans in the daemon."""

    def __init__(self, workdir: Path, tag: str, traced: bool):
        socket_path = os.path.relpath(workdir / f"{tag}.sock")
        argv = ["serve", "--socket", socket_path, "--jobs", "1",
                "--cache-dir", str(workdir / f"{tag}-cache")]
        self.spans_path = workdir / f"{tag}-spans.json" if traced else None
        command = ([sys.executable, str(HERE / "serve_traced.py"),
                    str(self.spans_path), *argv] if traced
                   else [sys.executable, "-m", "repro.cli", *argv])
        self.log_path = workdir / f"{tag}.log"
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(command, stdout=log, stderr=log)
        self.client = ClouClient(socket_path=socket_path, timeout=120.0,
                                 retries=0)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                self.client.ping()
                return
            except DaemonUnreachable:
                if self.process.poll() is not None or \
                        time.monotonic() > deadline:
                    self.close()
                    raise RuntimeError(
                        f"clou serve did not start: "
                        f"{self.log_path.read_text(errors='replace')}")
                time.sleep(0.01)

    def close(self) -> dict | None:
        """Stop the daemon; returns its tracer dump when traced.  It is
        killed, not sent SIGTERM: nothing after the last reply is
        measured, and a clean ``clou serve`` shutdown waits 5 s for its
        accept thread."""
        self.client.close()
        dump = None
        if self.spans_path is not None and self.process.poll() is None:
            self.process.send_signal(signal.SIGUSR1)
            deadline = time.monotonic() + 30.0
            while (not self.spans_path.exists()
                   and self.process.poll() is None
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            if self.spans_path.exists():
                dump = load_dump(str(self.spans_path))
        self.process.kill()
        self.process.wait()
        return dump


class EditStream:
    """A closed-loop editing session over one translation unit.

    Requests come in groups of four: three edit the ``acc`` initializer
    of three different small functions, the fourth re-sends the source
    unchanged.  One cycle edits every small function once, in an order
    drawn from the seed once, so the n-th request of every cycle does
    the same kind of work.
    """

    def __init__(self, functions: list[str], small: list[int], seed: int):
        self.functions = list(functions)
        order = list(small)
        random.Random(seed).shuffle(order)
        self.cycle: list[int | None] = []
        for start in range(0, len(order), 3):
            self.cycle += order[start:start + 3] + [None]
        self.edits = 0
        self.sent = 0

    def next(self) -> tuple[str, bool]:
        index = self.cycle[self.sent % len(self.cycle)]
        self.sent += 1
        if index is not None:
            self.edits += 1
            self.functions[index] = _ACC_INIT.sub(
                f"uint64_t acc = {self.edits};", self.functions[index])
        return "\n\n".join(self.functions), index is not None


class DaemonEdit(Workload):
    """An editor session against ``clou serve``: one client, one
    connection, closed loop, each request a small edit (see
    :class:`EditStream`).  An operation is one round trip; a pass is one
    cycle of the stream, which edits every small function once;
    ``--smoke`` sends one group."""

    name = "daemon-edit"
    FUNCTIONS = 12
    #: Fewer ``state[`` references than this makes a function small.
    SMALL_STATE_REFS = 60

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.functions = openssl_functions(OPENSSL_ROUNDS[:self.FUNCTIONS],
                                           seed)
        self.small = [index for index, text in enumerate(self.functions)
                      if text.count("state[") < self.SMALL_STATE_REFS]
        groups = -(-len(self.small) // 3)
        self.per_pass = 4 if smoke else len(self.small) + groups
        self.daemons: dict[bool, Daemon] = {}
        self.workdir = OUT / f"work-{os.getpid()}"

    def start(self, trace: bool) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        source = "\n\n".join(self.functions)
        self.streams = {}
        for traced in ((False, True) if trace else (False,)):
            daemon = Daemon(self.workdir, "traced" if traced else "plain",
                            traced)
            self.daemons[traced] = daemon
            warm = daemon.client.analyze(request(source, "pht",
                                                 "openssl_like.c"))
            if not warm.ok or warm.report is None:
                raise RuntimeError(f"warm-up failed: {warm.error}")
            self.reference_output = serialize.to_json(warm.report,
                                                      stable=True)
            self.streams[traced] = EditStream(self.functions, self.small,
                                              self.seed)

    def run_pass(self, traced: bool) -> Pass:
        client = self.daemons[traced].client
        stream = self.streams[traced]
        step = self.new_pass(traced)
        for _ in range(self.per_pass):
            source, edited = stream.next()
            try:
                result = step.time(lambda: client.analyze(
                    request(source, "pht", "openssl_like.c")))
            except (AnalysisError, DaemonBusy, DaemonUnreachable) as error:
                step.requests += 1
                step.failed += 1
                step.outputs.append(f"error: {error}")
                continue
            step.record([result], step.ops[-1])
            misses = int(edited)
            if (result.stats.cache_misses != misses or result.stats.cache_hits
                    != self.FUNCTIONS - misses):
                step.problems.append(
                    f"request {step.requests}: {result.stats.cache_hits} "
                    f"hits / {result.stats.cache_misses} misses, expected "
                    f"{self.FUNCTIONS - misses} / {misses}")
            if step.outputs[-1] != self.reference_output:
                step.problems.append(f"request {step.requests}: report "
                                     f"differs from the warm-up report")
        return step

    def check(self, first: Pass) -> list[str]:
        if self.seed == 0 and "\n\n".join(self.functions) != \
                openssl_like_source(self.FUNCTIONS, 23):
            return ["the seed-0 unit differs from openssl_like_source"]
        return []

    def close(self) -> list[dict]:
        dumps = [daemon.close() for daemon in self.daemons.values()]
        shutil.rmtree(self.workdir, ignore_errors=True)
        return [dump for dump in dumps if dump is not None]


class OpensslJobs2(Workload):
    """OpenSSL-shaped translation units under pht through the worker
    pool (``jobs=2``, uncached).  The 24 functions have half the sizes
    of ``openssl_like_source(24, seed=23)``, at most :data:`ROUNDS`, and
    are cut, in order, into three units of 8; an operation is one unit.
    Pool workers are not traced, so a traced run takes its layer spans
    from one serial pass of the same units."""

    name = "openssl-jobs2"
    alternates = False
    jobs = 2
    UNIT = 8
    #: The largest function has 132 rounds; at 66 it would take more
    #: than half of a pass.
    ROUNDS = 16

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        rounds = tuple(min(self.ROUNDS, max(1, size // 2))
                       for size in OPENSSL_ROUNDS)
        functions = openssl_functions(rounds[:self.UNIT] if smoke
                                      else rounds, seed)
        self.requests = [
            request("\n\n".join(functions[start:start + self.UNIT]), "pht",
                    f"openssl_like_{start // self.UNIT}.c")
            for start in range(0, len(functions), self.UNIT)]

    def start(self, trace: bool) -> None:
        super().start(trace)
        self.parallel = ClouSession(config=CONFIG, jobs=self.jobs,
                                    cache=False)

    def _pass(self, session: ClouSession, traced: bool) -> Pass:
        step = self.new_pass(traced)
        for unit in self.requests:
            worker.clear_caches()
            step.timed(session, [unit])
        return step

    def run_pass(self, traced: bool) -> Pass:
        return self._pass(self.parallel, traced)

    def reference(self, tracer: Tracer | None) -> list[Pass]:
        passes = [self._pass(self.session, False)]
        if tracer is not None:
            with tracer.installed():
                passes.append(self._pass(self.session, True))
        return passes


WORKLOADS = {cls.name: cls for cls in (Table2Crypto, Fig8Scaling, Litmus,
                                       DaemonEdit, OpensslJobs2)}


def _peak_rss_mb() -> float:
    """Largest resident set of this process and every reaped child
    (daemons, pool workers), in MiB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def _expected_digest(workload: str, smoke: bool) -> str | None:
    with open(HERE / "expected.json", encoding="utf-8") as handle:
        recorded = json.load(handle)
    return recorded["smoke" if smoke else "full"].get(workload)


def _layers(workload: Workload, tracer: Tracer, loop: list[Pass],
            reference: list[Pass], dumps: list[dict]) -> dict:
    """Per-layer metrics of a traced run (see README.md)."""
    if workload.alternates:
        traced = [step for step in loop if step.traced]
        base = [step for step in loop if not step.traced]
    else:
        traced = [step for step in reference if step.traced]
        base = [step for step in reference if not step.traced]
    spans = list(tracer.spans)
    counts = {name: dict(per_request)
              for name, per_request in tracer.counts.items()}
    responses = list(counts.pop("wire.decoded_bytes", {}).values())
    for dump in dumps:
        # The daemon's first request is the warm-up, not timed traffic.
        spans += [span for span in dump["spans"] if span[5] > 1]
        for name, per_request in dump["counts"].items():
            if name == "wire.decoded_bytes":
                continue
            merged = counts.setdefault(name, {})
            for key, amount in per_request.items():
                if key > 1:
                    merged[(dump["pid"], key)] = amount
    layers = layer_metrics(spans, counts, len(traced))
    # Scheduler metrics come from the untraced passes of the same run.
    untraced = [step for step in loop if not step.traced]
    serial = [step.wall for step in reference if not step.traced]
    layers.update({
        "serve.overhead_ms": 1000.0 * statistics.median(
            [value for step in untraced for value in step.overheads]),
        "serve.response_bytes": (statistics.median(responses)
                                 if responses else 0.0),
        "sched.pool.work_s": statistics.median(
            [step.work for step in untraced]),
        "sched.pool.efficiency": statistics.median(
            [step.work / (workload.jobs * step.wall) for step in untraced]),
        "sched.parallel_speedup": (
            statistics.median(serial) / statistics.median(
                [step.wall for step in untraced]) if serial else 1.0),
        "trace.overhead_frac": (sum(typical(traced)) / sum(typical(base))
                                - 1.0),
    })
    return layers


def typical(passes: list[Pass]) -> list[float]:
    """Each operation's trimmed mean time over ``passes``, in pass
    order."""
    return [trimmed_mean(times)
            for times in zip(*(step.ops for step in passes))]


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        setup_only: bool) -> dict | None:
    workload = WORKLOADS[name](seed, smoke)
    tracer = Tracer() if trace else None
    if smoke:
        need = 2 if trace and workload.alternates else 1
    else:
        need = 2 if trace else MIN_PASSES
    loop: list[Pass] = []
    spent: list[float] = []
    problems: list[str] = []
    try:
        workload.start(trace)
        print("ready", flush=True)
        if setup_only:
            return None
        started = time.perf_counter()
        while True:
            traced = trace and workload.alternates and len(loop) % 2 == 1
            began = time.perf_counter()
            if traced:
                with tracer.installed():
                    step = workload.run_pass(True)
            else:
                step = workload.run_pass(False)
            spent.append(time.perf_counter() - began)
            if not loop:
                problems += workload.check(step)
            step.seal()
            loop.append(step)
            elapsed = time.perf_counter() - started
            if len(loop) >= need and (
                    smoke or elapsed + statistics.median(spent) > seconds):
                break
        reference = workload.reference(tracer)
    finally:
        dumps = workload.close()
        workload.calibration.close()
    passes = loop + reference
    for step in passes:
        step.seal()
        problems += step.problems
    digests = [step.digest for step in passes]
    if len(set(digests)) != 1:
        problems.append(f"passes disagree on the output digest: "
                        f"{sorted(set(digests))}")
    expected = _expected_digest(name, smoke) if seed == 0 else None
    if expected is not None and digests[0] != expected:
        problems.append(f"digest {digests[0]} differs from the recorded "
                        f"seed-0 digest {expected}")
    untraced = [step for step in loop if not step.traced]
    if any(step.counts != untraced[0].counts for step in untraced):
        problems.append("untraced passes disagree on the scheduler counts")
    typical_ops = typical(untraced)
    result = {
        "workload": name, "seed": seed, "trace": trace, "smoke": smoke,
        "op_seconds": [step.ops for step in untraced],
        "typical": typical_ops,
        "calibration": workload.calibration.samples,
        "scale": workload.calibration.scale(),
        "attempted": sum(step.requests for step in passes),
        "failed": sum(step.failed for step in passes),
        "digest": digests[0],
        "digest_recorded": expected,
        "counts": untraced[0].counts,
        "problems": problems,
        "peak_rss_mb": _peak_rss_mb(),
        "passes": {"untraced": len(untraced),
                   "traced": sum(step.traced for step in passes)},
    }
    points = [Fig8Point(function=function, engine=engine, aeg_size=nodes,
                        runtime=seconds)
              for (function, engine, nodes), seconds
              in zip(untraced[0].points, typical_ops) if nodes is not None]
    if points:
        result["loglog_slopes"] = {
            engine: loglog_slope([p for p in points if p.engine == engine])
            for engine in dict.fromkeys(point.engine for point in points)}
    if trace:
        result["layers"] = _layers(workload, tracer, loop, reference, dumps)
        result["absent"] = sorted(set(tracer.absent).union(
            *(dump["absent"] for dump in dumps)))
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace-{name}{'-smoke' if smoke else ''}.json"
        write_chrome_trace(str(path), [(os.getpid(), f"benchmark {name}",
                                        tracer.spans)] + [
            (dump["pid"], "clou serve", dump["spans"]) for dump in dumps])
        result["trace_file"] = os.path.relpath(path)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.smoke, args.setup_only)
    if result is not None:
        print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
