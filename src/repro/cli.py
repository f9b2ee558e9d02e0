"""Command-line interface: ``clou analyze victim.c --engine pht``.

Mirrors Fig. 6's tool shape: C source in; transmitters, witness chains,
and (optionally) fence repair out.  ``clou lint`` is the sequential
constant-time checker — the dataflow-only pre-pass that needs no S-AEG
and no solver.

All three commands run on a :class:`repro.sched.ClouSession`: work fans
out over ``--jobs`` worker processes (default ``$REPRO_JOBS`` or 1) with
per-item crash isolation, and analyze/lint results are cached
content-addressed under ``--cache-dir`` (default ``$REPRO_CACHE_DIR`` or
``~/.cache/repro-clou``; ``--no-cache`` disables).  ``--stats`` prints
the scheduler's cache/retry/timing counters — to stderr under ``--json``
so the JSON stays byte-stable.

Given a daemon address (``--socket``/``--port``, or ``$REPRO_SOCKETS`` /
``$REPRO_SOCKET``), the same requests go to a ``clou serve`` daemon
instead, with identical output; an unreachable daemon falls back to the
in-process session.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.clou.engine import ENGINES, engine_names
from repro.lcm.taxonomy import TransmitterClass
from repro.sched import AnalysisRequest, ClouSession, SchedulerInterrupt, \
    env_cache_dir, user_cache_dir

_SEVERITY_CHOICES = ("AT", "CT", "DT", "UCT", "UDT")

# Derived from the engine registry, never hand-listed: a newly
# registered engine appears in analyze and repair automatically.
_ENGINE_CHOICES = (*engine_names(), "all")

# Exit codes (documented in README.md).  LEAK outranks INCOMPLETE: a
# run that both found a leak and skipped work exits EXIT_LEAK.
EXIT_CLEAN = 0        # analysis complete, nothing at/above the gate
EXIT_LEAK = 1         # a detection at/above --fail-on-severity
EXIT_USAGE = 2        # bad arguments (argparse's convention)
EXIT_INCOMPLETE = 3   # --fail-on-incomplete and coverage was degraded
EXIT_INTERRUPTED = 130  # SIGINT/SIGTERM (128 + SIGINT)


def _add_scheduler_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: $REPRO_JOBS or 1)")
    parser.add_argument("--timeout", type=float, default=None, metavar="SECS",
                        help="per-function timeout in seconds (cooperative "
                             "engine budget + a 2x wall-clock kill under "
                             "--jobs)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache location (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro-clou)")
    parser.add_argument("--stats", action="store_true",
                        help="print scheduler stats (timings, cache "
                             "hits/misses, retries)")
    parser.add_argument("--memory-limit", type=int, default=None,
                        metavar="MB",
                        help="per-worker address-space ceiling in MiB "
                             "(RLIMIT_AS; parallel mode only). Items that "
                             "hit it resume from their last checkpoint")
    parser.add_argument("--stall-timeout", type=float, default=None,
                        metavar="SECS",
                        help="kill a worker that streams no checkpoint "
                             "for this long (hung, as opposed to slow; "
                             "parallel mode only)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clou",
        description="Detect and repair Spectre leakage in C programs "
                    "using leakage containment models (ISCA 2022).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="detect transmitters")
    _add_analyze_flags(analyze)
    _add_daemon_flags(analyze, priority=True)

    lint = sub.add_parser(
        "lint",
        help="sequential constant-time lint (dataflow only, no solver)")
    _add_lint_flags(lint)
    _add_daemon_flags(lint, priority=True)

    repair = sub.add_parser("repair", help="insert minimal lfences")
    _add_repair_flags(repair)
    _add_daemon_flags(repair, priority=True)

    serve = sub.add_parser(
        "serve",
        help="run a persistent analysis daemon (warm caches, "
             "function-granular incremental re-analysis)")
    serve.add_argument("--socket", default=None, metavar="PATH",
                       help="UNIX socket to listen on (default: "
                            "$REPRO_SOCKET)")
    serve.add_argument("--port", type=int, default=None, metavar="N",
                       help="TCP port to listen on instead of a UNIX "
                            "socket (0 = ephemeral)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for --port "
                            "(default: 127.0.0.1)")
    serve.add_argument("--max-inflight", type=int, default=None,
                       metavar="N",
                       help="reject analyze requests beyond N queued or "
                            "running (clients see a busy error and exit "
                            f"{EXIT_INCOMPLETE}); default: unbounded")
    serve.add_argument("--tenant-budget", type=float, default=None,
                       metavar="N",
                       help="admit at most N analyze requests per second "
                            "per tenant (token bucket, burst max(1,N)); "
                            "default: unlimited")
    serve.add_argument("--faults", default=None, metavar="SPEC",
                       help="arm the deterministic fault injector for the "
                            "daemon's serve.* transport sites, e.g. "
                            "'seed=1;drop@serve.write#2' (chaos testing; "
                            "see repro.sched.faults)")
    _add_scheduler_flags(serve)

    cache = sub.add_parser(
        "cache", help="inspect and maintain the on-disk result cache")
    cachesub = cache.add_subparsers(dest="cache_command", required=True)
    cachegc = cachesub.add_parser(
        "gc",
        help="prune the cache to a size budget (least-recently-written "
             "entries evicted first; abandoned .tmp files swept)")
    cachegc.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="cache location (default: $REPRO_CACHE_DIR "
                              "or ~/.cache/repro-clou)")
    cachegc.add_argument("--cache-max-mb", type=float, default=1024.0,
                         metavar="MB",
                         help="size budget in MiB (default: 1024)")

    client = sub.add_parser(
        "client", help="query or stop a clou serve daemon")
    csub = client.add_subparsers(dest="client_op", required=True)
    cstatus = csub.add_parser(
        "status", help="print the daemon's queue depth and session stats")
    _add_daemon_flags(cstatus)
    cshutdown = csub.add_parser(
        "shutdown", help="ask the daemon to exit cleanly")
    _add_daemon_flags(cshutdown)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: generated programs checked against "
             "the cross-layer oracle matrix")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="master seed; the whole run is a pure "
                           "function of it (default 0)")
    fuzz.add_argument("--iterations", type=int, default=100, metavar="N",
                      help="generated inputs to try (default 100)")
    fuzz.add_argument("--time-budget", type=float, default=None,
                      metavar="SECS",
                      help="wall-clock cap; truncates the run without "
                           "changing which input each iteration fuzzes")
    fuzz.add_argument("--oracle", action="append", default=None,
                      metavar="NAME",
                      help="restrict to an oracle (repeatable or "
                           "comma-separated; default: all). See "
                           "--list-oracles")
    fuzz.add_argument("--corpus", default="fuzz-corpus", metavar="DIR",
                      help="directory for shrunk reproducers "
                           "(default: fuzz-corpus/)")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="record failing inputs without minimizing")
    fuzz.add_argument("--max-failures", type=int, default=5, metavar="N",
                      help="stop after N violations (default 5)")
    fuzz.add_argument("--list-oracles", action="store_true",
                      help="print the oracle matrix and exit")
    fuzz.add_argument("--replay", metavar="REPRODUCER.json",
                      help="re-run one corpus reproducer instead of "
                           "fuzzing; exits non-zero while it still fails")
    fuzz.add_argument("--contract-matrix", action="store_true",
                      help="instead of fuzzing, sweep every hardware "
                           "xstate policy against every contract LCM "
                           "(--iterations = programs per cell) and print "
                           "the conformance matrix; exits non-zero when "
                           "a measured cell contradicts the predicted "
                           "refinement relation")
    return parser


def _add_lint_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("sources", nargs="+", help="C source file(s)")
    parser.add_argument("--secrets", default="",
                        help="comma-separated secret symbols (globals or "
                             "parameter names); replaces the default "
                             "all-public-inputs-are-secret policy")
    parser.add_argument("--public", default="",
                        help="comma-separated names to exempt from the "
                             "default secret-input policy")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as byte-stable JSON")
    parser.add_argument("--fail-on-severity", choices=_SEVERITY_CHOICES,
                        default=None, metavar="CLASS",
                        help="exit non-zero when any finding is at or above "
                             "this Table 1 class; choices: %(choices)s")
    _add_scheduler_flags(parser)


def _add_repair_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("source", help="C source file")
    parser.add_argument("--engine", choices=_ENGINE_CHOICES, default="pht",
                        help="detection engine to repair against, or "
                             "'all' for every registered engine "
                             "(default: pht)")
    parser.add_argument("--strategy", choices=["lfence", "protect"],
                        default="lfence",
                        help="lfence: minimal full-pipeline fences; "
                             "protect: Blade-style value-flow breaks (§7)")
    _add_scheduler_flags(parser)


def _add_daemon_flags(parser: argparse.ArgumentParser, *,
                      priority: bool = False) -> None:
    parser.add_argument("--socket", action="append", default=None,
                        metavar="PATH",
                        help="daemon UNIX socket; repeat for an ordered "
                             "failover list (default: $REPRO_SOCKETS or "
                             "$REPRO_SOCKET)")
    parser.add_argument("--port", type=int, default=None, metavar="N",
                        help="daemon TCP port (instead of a UNIX socket)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="daemon host for --port (default: 127.0.0.1)")
    parser.add_argument("--tenant", default=None, metavar="NAME",
                        help="admission-control bucket to bill this "
                             "request to (default: $REPRO_TENANT)")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SECS",
                        help="wall-clock budget for the whole command; "
                             "stamped on every envelope so the daemon "
                             "drops or degrades work that cannot finish "
                             f"in time (exit {EXIT_INCOMPLETE})")
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="extra attempts on busy/unreachable daemons, "
                             "with seeded-jitter exponential backoff and "
                             "--socket failover (default: 2)")
    if priority:
        parser.add_argument("--priority", type=int, default=0, metavar="N",
                            help="queue priority on the daemon (lower runs "
                                 "first; default 0)")


def _add_analyze_flags(analyze: argparse.ArgumentParser) -> None:
    analyze.add_argument("source", nargs="?", default=None,
                         help="C source file")
    analyze.add_argument("--engine", choices=_ENGINE_CHOICES, default="pht",
                         help="detection engine, or 'all' to run every "
                              "registered engine (default: pht)")
    analyze.add_argument("--list-engines", action="store_true",
                         help="print the engine matrix (attack class, "
                              "speculation primitive, pruning, repair) "
                              "and exit")
    analyze.add_argument("--classes", default="udt,uct,dt,ct",
                         help="comma-separated transmitter classes")
    analyze.add_argument("--rob", type=int, default=250, help="ROB capacity")
    analyze.add_argument("--lsq", type=int, default=50, help="LSQ capacity")
    analyze.add_argument("--window", type=int, default=250,
                         help="sliding window size Wsize")
    analyze.add_argument("--no-addr-gep-filter", action="store_true",
                         help="disable the addr_gep benign-leak filter")
    analyze.add_argument("--no-range-pruning", action="store_true",
                         help="disable interval-analysis pruning of "
                              "provably in-bounds accesses (PHT)")
    analyze.add_argument("--witnesses", action="store_true",
                         help="print full witness chains")
    analyze.add_argument("--json", action="store_true",
                         help="emit the report as byte-stable JSON")
    analyze.add_argument("--dot", metavar="DIR",
                         help="write witness graphs as DOT files into DIR")
    analyze.add_argument("--alias-prediction", action="store_true",
                         help="assume PSF-style alias-predicting hardware "
                              "(§5.2 parameterization)")
    analyze.add_argument("--group", action="store_true",
                         help="group witnesses into §6.2.3 gadget "
                              "equivalence classes (one report per culprit)")
    analyze.add_argument("--secrets", default="",
                         help="comma-separated secret symbol names; "
                              "filters witnesses that cannot reach a "
                              "secret (§7 secrecy labels)")
    analyze.add_argument("--fail-on-severity", choices=_SEVERITY_CHOICES,
                         default=None, metavar="CLASS",
                         help="exit non-zero when any detection is at or "
                              "above this Table 1 class (CI gate); "
                              "choices: %(choices)s")
    analyze.add_argument("--fail-on-incomplete", action="store_true",
                         help=f"exit {EXIT_INCOMPLETE} when any function's "
                              "coverage was degraded (skipped "
                              "candidates, timeouts, errors) — a SAFE "
                              "verdict then certifies full coverage")
    analyze.add_argument("--faults", default=None, metavar="SPEC",
                         help="arm the deterministic fault injector, e.g. "
                              "'seed=1;crash@worker.item#2' (degradation "
                              "testing; see repro.sched.faults)")
    _add_scheduler_flags(analyze)


def _config_from_args(args) -> "ClouConfig":
    from repro.clou import ClouConfig

    return ClouConfig(
        rob_size=args.rob,
        lsq_size=args.lsq,
        window_size=args.window,
        classes=tuple(args.classes.split(",")),
        addr_gep_filter=not args.no_addr_gep_filter,
        enable_range_pruning=not args.no_range_pruning,
        timeout_seconds=args.timeout,
        assume_alias_prediction=args.alias_prediction,
        fault_spec=args.faults,
    )


def _session_from_args(args) -> ClouSession:
    cache_dir = None
    if not args.no_cache:
        cache_dir = (args.cache_dir or env_cache_dir()
                     or user_cache_dir())
    # The engines' cooperative budget normally fires first; the
    # wall-clock kill (2x grace) only reaps workers hung outside it.
    hard_timeout = args.timeout * 2 if args.timeout else None
    return ClouSession(jobs=args.jobs, timeout=hard_timeout,
                       cache=not args.no_cache, cache_dir=cache_dir,
                       memory_limit_mb=args.memory_limit,
                       stall_timeout=args.stall_timeout)


def _print_stats(args, stats) -> None:
    if not args.stats:
        return
    stream = sys.stderr if getattr(args, "json", False) else sys.stdout
    print(stats.summary(), file=stream)


def _severity_threshold(name: str | None) -> int | None:
    if name is None:
        return None
    return TransmitterClass(name).severity


def _analyze_exit_code(report, threshold: int | None,
                       fail_on_incomplete: bool = False) -> int:
    if threshold is None:
        leaky = report.leaky
    else:
        worst = max((w.klass.severity for w in report.transmitters),
                    default=-1)
        leaky = worst >= threshold
    if leaky:
        return EXIT_LEAK
    if fail_on_incomplete and not report.complete:
        return EXIT_INCOMPLETE
    return EXIT_CLEAN


def _list_engines() -> int:
    width = max(len(name) for name in ENGINES)
    for name in engine_names():
        cls = ENGINES[name]
        print(f"{name:<{width}}  {cls.attack}")
        pad = " " * width
        print(f"{pad}    primitive: {cls.primitive}")
        print(f"{pad}    pruning:   {cls.range_pruning}")
        print(f"{pad}    repair:    {cls.repair_note}")
    return EXIT_CLEAN


def _combine_exit_codes(codes: list[int]) -> int:
    # LEAK outranks INCOMPLETE outranks CLEAN, as for a single engine.
    if EXIT_LEAK in codes:
        return EXIT_LEAK
    if EXIT_INCOMPLETE in codes:
        return EXIT_INCOMPLETE
    return EXIT_CLEAN


def _run_analyze(args) -> int:
    if args.list_engines:
        return _list_engines()
    if args.source is None:
        print("clou analyze: a C source file is required "
              "(or --list-engines)", file=sys.stderr)
        return EXIT_USAGE
    source = _read(args.source)
    config = _config_from_args(args)
    engines = engine_names() if args.engine == "all" else (args.engine,)
    results, stats = _run_requests(args, [
        AnalysisRequest.analyze(source, engine=engine, name=args.source,
                                config=config)
        for engine in engines])
    reports = [result.report for result in results]
    threshold = _severity_threshold(args.fail_on_severity)
    codes = [_analyze_exit_code(report, threshold, args.fail_on_incomplete)
             for report in reports]
    if args.json:
        from repro.clou.serialize import module_report_dict, to_json

        if len(reports) == 1:
            print(to_json(reports[0], stable=True))
        else:
            import json

            # One entry per engine, in engine_names() order: stable and
            # byte-identical across --jobs and cached/fresh runs.
            print(json.dumps(
                [module_report_dict(report, stable=True)
                 for report in reports],
                indent=2, ensure_ascii=False, sort_keys=True))
    else:
        for report in reports:
            _print_analyze_report(args, report, engines)
    _print_stats(args, stats)
    return _combine_exit_codes(codes)


def _print_analyze_report(args, report, engines) -> None:
    if args.dot:
        import os

        from repro.viz import witness_to_dot

        os.makedirs(args.dot, exist_ok=True)
        prefix = f"{report.engine}_" if len(engines) > 1 else ""
        for i, witness in enumerate(report.transmitters):
            path = os.path.join(
                args.dot,
                f"{prefix}witness_{i:03d}_{witness.klass.value}.dot")
            with open(path, "w") as handle:
                handle.write(witness_to_dot(witness, name=f"w{i}"))
        print(f"wrote {len(report.transmitters)} witness graphs to "
              f"{args.dot}/")
    if len(engines) > 1:
        print(f"== engine {report.engine} ==")
    print(report.summary())
    for function_report in report.functions:
        if function_report.error:
            print(f"  {function_report.function}: ERROR "
                  f"{function_report.error}")
            continue
        print("  " + function_report.summary())
        if args.group or args.secrets:
            from repro.clou import group_witnesses, postprocess

            secrets = tuple(s for s in args.secrets.split(",") if s)
            result = postprocess(function_report, secret_symbols=secrets)
            print(f"    post-processing: {result.summary()}")
            for gadget_class in group_witnesses(result.kept):
                print(f"    {gadget_class}")
        if args.witnesses:
            for witness in function_report.transmitters():
                print()
                for line in witness.describe().splitlines():
                    print("    " + line)
    coverage = report.coverage()
    print(f"verdict: {report.verdict} "
          f"(examined={coverage['examined']} pruned={coverage['pruned']} "
          f"skipped={coverage['skipped_by_budget']})")


def _run_lint(args) -> int:
    secrets = tuple(s for s in args.secrets.split(",") if s)
    public = tuple(s for s in args.public.split(",") if s)
    results, stats = _run_requests(args, [
        AnalysisRequest.lint(_read(path), name=path, secrets=secrets,
                             public=public)
        for path in args.sources])
    reports = [result.lint for result in results]
    if args.json:
        import json

        from repro.analysis import lint_report_dict

        payload = [lint_report_dict(report) for report in reports]
        print(json.dumps(payload if len(payload) > 1 else payload[0],
                         indent=2, sort_keys=True))
    else:
        for report in reports:
            print(report.describe())
    _print_stats(args, stats)
    threshold = _severity_threshold(args.fail_on_severity)
    if threshold is None:
        return 0
    worst = max((f.severity.severity
                 for report in reports for f in report.findings), default=-1)
    return 1 if worst >= threshold else 0


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _run_repair(args) -> int:
    from repro.clou import ClouConfig

    config = ClouConfig(timeout_seconds=args.timeout)
    source = _read(args.source)
    engines = engine_names() if args.engine == "all" else (args.engine,)
    results, stats = _run_requests(args, [
        AnalysisRequest.repair(source, engine=engine, name=args.source,
                               strategy=args.strategy, config=config)
        for engine in engines])
    ok = True
    for result in results:
        for repaired in result.repairs:
            print(repaired.summary())
            for block, index in repaired.fences:
                print(f"  lfence at {block}#{index}")
            ok &= repaired.fully_repaired
    _print_stats(args, stats)
    return 0 if ok else 1


class _Degraded(Exception):
    """The daemon shed the command's requests (busy) or they missed
    their ``--deadline``: coverage is incomplete, exit 3."""


def _run_requests(args, requests: list[AnalysisRequest]):
    """Run one command's requests and return ``(results, stats)``,
    raising the first failed request's error.

    With a daemon address configured, the requests go to ``clou
    serve``; an unreachable daemon falls back to the in-process
    session — the daemon is an accelerator, never a dependency.  With
    no address, no client is built and the session runs the requests.
    """
    from repro.sched import SessionStats

    results = (_daemon_results(args, requests)
               if _daemon_configured(args) else None)
    if results is None:
        session = _session_from_args(args)
        deadline = args.deadline_at
        results = session.run(requests, deadline=deadline)
        stats = session.stats
        if deadline is not None and _unfinished_at(deadline, results, stats):
            raise _Degraded("deadline exceeded before the in-process run "
                            "completed")
    else:
        stats = SessionStats()
        for result in results:
            stats.merge(result.stats)
    for result in results:
        if result.exception is not None:
            raise result.exception
        if result.error is None:
            continue
        if result.request.kind == "lint":
            raise SystemExit(f"lint {result.request.name}: {result.error}")
        from repro.errors import AnalysisError

        raise AnalysisError(result.error)
    return results, stats


def _unfinished_at(deadline: float, results, stats) -> bool:
    """Has ``deadline`` passed with some item killed or some report
    incomplete?"""
    return time.time() >= deadline and (stats.timeouts > 0 or any(
        not result.report.complete
        for result in results if result.report is not None))


def _daemon_results(args, requests: list[AnalysisRequest]):
    """The daemon's results, or ``None`` when no daemon is reachable.
    A busy or over-deadline daemon raises :class:`_Degraded`."""
    from repro.serve import DaemonBusy, DaemonUnreachable, DeadlineExceeded

    try:
        with _client_from_args(args) as client:
            return [client.analyze(request, priority=args.priority)
                    for request in requests]
    except DaemonUnreachable:
        return None
    except (DaemonBusy, DeadlineExceeded) as error:
        raise _Degraded(str(error)) from error


def _daemon_configured(args) -> bool:
    from repro.sched import env_socket, env_sockets

    return bool(any(args.socket or ()) or args.port is not None
                or env_sockets() or env_socket())


def _daemon_address(args) -> tuple[str | None, int | None]:
    """Resolve (socket_path, port) from flags + ``$REPRO_SOCKET``
    (the ``serve`` side: exactly one listen address)."""
    from repro.sched import env_socket

    if args.port is not None:
        return None, args.port
    return args.socket or env_socket(), None


def _client_from_args(args) -> "ClouClient":
    """Build the daemon client from the shared ``_add_daemon_flags``
    surface: repeatable ``--socket`` failover list, ``--tenant``
    billing, the command's ``--deadline``, and the ``--retries``
    backoff loop (seeded, hence deterministic)."""
    from repro.serve import ClouClient

    sockets = tuple(path for path in (args.socket or ()) if path)
    deadline = args.deadline_at
    if args.port is not None and not sockets:
        return ClouClient(port=args.port, host=args.host,
                          tenant=args.tenant, deadline=deadline,
                          retries=args.retries)
    return ClouClient(sockets=sockets or None, tenant=args.tenant,
                      deadline=deadline, retries=args.retries)


def _run_serve(args) -> int:
    import os
    import signal

    from repro.sched.faults import activate
    from repro.serve import ClouServer

    socket_path, port = _daemon_address(args)
    if socket_path is None and port is None:
        print("clou serve: pass --socket PATH or --port N "
              "(or set $REPRO_SOCKET)", file=sys.stderr)
        return EXIT_USAGE
    session = _session_from_args(args)
    server = ClouServer(session, socket_path=socket_path, port=port,
                        host=args.host, max_inflight=args.max_inflight,
                        tenant_budget=args.tenant_budget)
    with activate(args.faults):
        server.start()

        def _stop(signum, frame):
            server.shutdown()

        signal.signal(signal.SIGTERM, _stop)
        signal.signal(signal.SIGINT, _stop)
        print(f"clou serve: listening on {server.address} "
              f"(pid {os.getpid()})", file=sys.stderr, flush=True)
        server.serve_forever()
    print("clou serve: shut down cleanly", file=sys.stderr)
    return EXIT_CLEAN


def _run_cache(args) -> int:
    from repro.sched import ResultCache

    directory = (args.cache_dir or env_cache_dir() or user_cache_dir())
    cache = ResultCache(directory)
    removed, remaining = cache.gc(int(args.cache_max_mb * 1024 * 1024))
    print(f"clou cache gc: {directory}: removed {removed} entr"
          f"{'y' if removed == 1 else 'ies'}, "
          f"{remaining / (1024 * 1024):.1f} MiB in {len(cache)} entries "
          f"remain (budget {args.cache_max_mb:g} MiB)")
    return EXIT_CLEAN


def _run_client(args) -> int:
    from repro.serve import DaemonUnreachable

    client = _client_from_args(args)
    try:
        with client:
            if args.client_op == "status":
                import json

                print(json.dumps(client.status(), indent=2, sort_keys=True))
                return EXIT_CLEAN
            client.shutdown()
    except DaemonUnreachable as error:
        print(f"clou client: {error}", file=sys.stderr)
        return 1
    print(f"clou client: daemon at {client.address} shut down")
    return EXIT_CLEAN


def _run_fuzz(args) -> int:
    from repro.fuzz import ORACLES, load_reproducer, replay, run_fuzz

    if args.list_oracles:
        width = max(len(name) for name in ORACLES)
        for oracle in ORACLES.values():
            every = f" (every {oracle.period}th)" if oracle.period > 1 else ""
            print(f"{oracle.name:<{width}}  [{oracle.kind:<6}] "
                  f"{oracle.description}{every}")
        return 0
    if args.contract_matrix:
        from repro.fuzz import conformance_matrix

        report = conformance_matrix(seed=args.seed,
                                    programs=args.iterations)
        print(report.render())
        return 0 if report.ok else 1
    if args.replay:
        reproducer = load_reproducer(args.replay)
        message = replay(reproducer)
        if message is None:
            print(f"replay {reproducer.stem}: PASS "
                  f"(originally: {reproducer.message})")
            return 0
        print(f"replay {reproducer.stem}: STILL FAILING: {message}")
        return 1
    oracle_names = None
    if args.oracle:
        oracle_names = tuple(
            name for part in args.oracle for name in part.split(",") if name)
    try:
        report = run_fuzz(
            seed=args.seed, iterations=args.iterations,
            time_budget=args.time_budget, oracle_names=oracle_names,
            corpus_dir=args.corpus, shrink=not args.no_shrink,
            max_failures=args.max_failures, log=print)
    except ValueError as error:  # unknown oracle name
        raise SystemExit(str(error))
    print(report.summary())
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # One wall-clock budget for the whole command, anchored at its start
    # and shared by the daemon client and the in-process fallback.
    args.deadline_at = (time.time() + args.deadline
                        if getattr(args, "deadline", None) is not None
                        else None)
    try:
        if args.command == "analyze":
            return _run_analyze(args)
        if args.command == "lint":
            return _run_lint(args)
        if args.command == "repair":
            return _run_repair(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "client":
            return _run_client(args)
        if args.command == "cache":
            return _run_cache(args)
        if args.command == "fuzz":
            return _run_fuzz(args)
    except _Degraded as error:
        print(f"clou {args.command}: {error}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except (KeyboardInterrupt, SchedulerInterrupt):
        print("interrupted; worker pool shut down cleanly", file=sys.stderr)
        return EXIT_INTERRUPTED
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
