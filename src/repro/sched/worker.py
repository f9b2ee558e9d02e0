"""Work-item execution: what actually runs inside a scheduler slot.

A work item is a plain picklable dict (``kind``, ``source``, ``name``,
``function``, ``engine``, serialized ``config``, secrecy policy,
``strategy``).  :func:`execute_item` dispatches on ``kind`` and returns
a picklable result (:class:`FunctionReport`, :class:`RepairResult`, or
:class:`LintReport`).

Two process-local memo caches make the pipeline incremental within a
worker (and within the serial in-process path, where they implement the
one-S-AEG-per-function sharing across engines):

- the **module cache** — the ``compile_c`` output keyed by source
  digest, so the translation unit is tokenized and compiled once per
  process, not once per (function, engine) item; the session's
  function digests read the token spans the module carries.  A new
  version of a unit compiles against the unit's latest cached module,
  reusing every definition the edit did not touch;
- the **S-AEG cache** — ``build_acfg`` + :class:`SAEG` keyed by (source
  digest, function).  Both detection engines read the same S-AEG; the
  engines never mutate it (``ClouSTL`` keeps its bypass table on the
  engine object), so sharing is report-preserving.  Repair is *not*
  routed through this cache: fence insertion mutates the A-CFG function
  in place, so each repair item builds a private copy.

Caches are bounded LRU; entries are keyed by content, so sharing them
across sessions in one process is behaviour-preserving.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.clou.acfg import build_acfg
from repro.clou.aeg import SAEG
from repro.clou.engine import CLOU_DEFAULT_CONFIG, ClouConfig, ENGINES
from repro.clou.repair import RepairResult, repair
from repro.clou.report import FunctionReport
from repro.errors import AnalysisError, ReproError
from repro.sched.cache import source_digest

_MODULE_CACHE_SIZE = 8
_SAEG_CACHE_SIZE = 64

_module_cache: "OrderedDict[str, object]" = OrderedDict()
_saeg_cache: "OrderedDict[tuple[str, str], SAEG]" = OrderedDict()
_saeg_stats = {"hits": 0, "misses": 0}


def clear_caches() -> None:
    _module_cache.clear()
    _saeg_cache.clear()
    _saeg_stats["hits"] = _saeg_stats["misses"] = 0


def saeg_cache_info() -> dict[str, int]:
    """Hit/miss counters for the per-process S-AEG cache (used by tests
    to prove the cross-engine sharing actually happens)."""
    return dict(_saeg_stats, size=len(_saeg_cache))


def _cached(cache: OrderedDict, size: int, key, build):
    try:
        cache.move_to_end(key)
        return cache[key]
    except KeyError:
        pass
    value = build()
    cache[key] = value
    while len(cache) > size:
        cache.popitem(last=False)
    return value


def module_for(source: str, name: str = ""):
    """The compiled module for ``source`` (process-local memo).  A miss
    compiles against the latest memoized module of the same ``name``,
    so the definitions an edit left alone are not parsed or lowered
    again."""
    from repro.minic import compile_c

    def build():
        previous = next((module for module in reversed(_module_cache.values())
                         if module.name == name), None)
        return compile_c(source, name=name, previous=previous)

    key = source_digest(source) + "\x00" + name
    return _cached(_module_cache, _MODULE_CACHE_SIZE, key, build)


def saeg_for(source: str, name: str, function: str) -> SAEG:
    """One shared S-AEG per (source, function) — both engines read it."""
    key = (source_digest(source) + "\x00" + name, function)
    if key in _saeg_cache:
        _saeg_stats["hits"] += 1
    else:
        _saeg_stats["misses"] += 1
    module = module_for(source, name)
    return _cached(
        _saeg_cache, _SAEG_CACHE_SIZE, key,
        lambda: SAEG(build_acfg(module, function).function))


def analyze_item(source: str, name: str, function: str, engine: str,
                 config: ClouConfig, *, resume: dict | None = None,
                 checkpoint=None) -> FunctionReport:
    """One (function, engine) detection run; errors become report
    fields, never exceptions.
    ``resume``/``checkpoint`` thread the scheduler's partial-progress
    protocol into :meth:`DetectionEngine.run`."""
    if engine not in ENGINES:
        raise AnalysisError(f"unknown engine {engine!r}; choose from "
                            f"{sorted(ENGINES)}")
    try:
        aeg = saeg_for(source, name, function)
        return ENGINES[engine](aeg, config).run(resume=resume,
                                                checkpoint=checkpoint)
    except ReproError as error:
        return FunctionReport(function=function, engine=engine,
                              error=str(error))


def repair_item(source: str, name: str, function: str, engine: str,
                config: ClouConfig, strategy: str) -> RepairResult:
    if engine not in ENGINES:
        raise AnalysisError(f"unknown engine {engine!r}; choose from "
                            f"{sorted(ENGINES)}")
    module = module_for(source, name)
    try:
        acfg = build_acfg(module, function)  # private copy: repair mutates
        return repair(acfg.function, engine, config, strategy=strategy)
    except ReproError as error:
        return RepairResult(function=function, engine=engine, fences=[],
                            before=None, after=None, error=str(error))


def lint_item(source: str, name: str, secrets: tuple[str, ...],
              public: tuple[str, ...]):
    from repro.analysis import lint_module

    module = module_for(source, name)
    return lint_module(module, secrets=secrets, public=public)


def report_from_checkpoint(payload: dict, partial: dict,
                           error: str) -> FunctionReport | None:
    """Salvage a partial :class:`FunctionReport` from the last (folded)
    checkpoint of a permanently-failed analyze item.  The unexamined
    suffix counts as skipped, so the verdict degrades to ``unknown``
    (never to ``safe``) and the report is barred from the clean-results
    cache."""
    if payload.get("kind") != "analyze" or not partial:
        return None
    total = partial.get("total", 0)
    cursor = partial.get("cursor", 0)
    report = FunctionReport(
        function=payload["function"],
        engine=payload["engine"],
        witnesses=list(partial.get("witnesses", ())),
        timed_out=True,
        error=error,
        candidates=partial.get("candidates", 0),
        pruned=partial.get("pruned", 0),
        skipped=partial.get("skipped", 0) + max(0, total - cursor),
    )
    return report


def execute_item(payload: dict, *, resume: dict | None = None,
                 checkpoint=None):
    """Scheduler entry point: dispatch one work-item dict.

    Must stay a module-level function so it pickles under spawn-style
    ``multiprocessing`` start methods.
    """
    import time
    from dataclasses import replace as dc_replace

    from repro.sched.faults import activate, fault_point

    kind = payload["kind"]
    source = payload["source"]
    name = payload.get("name", "")
    config = ClouConfig.from_dict(payload["config"]) \
        if payload.get("config") is not None else CLOU_DEFAULT_CONFIG
    deadline = payload.get("deadline")
    if deadline is not None and kind in ("analyze", "repair"):
        # Clamp the engine's cooperative budget to the caller's
        # remaining wall-clock allowance.  This happens worker-side,
        # *after* cache keys were derived from the request config, so a
        # deadline can never change a cache address or the request
        # config echoed into reports.
        remaining = max(0.1, float(deadline) - time.time())
        budget = config.timeout_seconds
        if budget is None or remaining < budget:
            config = dc_replace(config, timeout_seconds=remaining)
    with activate(getattr(config, "fault_spec", None)):
        fault_point("worker.item")
        if kind == "analyze":
            return analyze_item(source, name, payload["function"],
                                payload["engine"], config,
                                resume=resume, checkpoint=checkpoint)
        if kind == "repair":
            return repair_item(source, name, payload["function"],
                               payload["engine"], config,
                               payload.get("strategy", "lfence"))
        if kind == "lint":
            return lint_item(source, name,
                             tuple(payload.get("secrets", ())),
                             tuple(payload.get("public", ())))
    raise AnalysisError(f"unknown work-item kind {kind!r}")


# Opt in to the scheduler's checkpoint/resume + heartbeat protocol.
execute_item.supports_checkpoints = True
