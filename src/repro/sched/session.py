"""The unified Clou analysis API: :class:`ClouSession`.

A session owns the knobs of a Clou run — the
:class:`ClouConfig`, the job count, the per-item wall-clock timeout, the
retry budget, and the on-disk result cache — and exposes one batch
entrypoint, :meth:`ClouSession.run`, over :class:`AnalysisRequest`
values::

    from repro.sched import AnalysisRequest, ClouSession

    session = ClouSession(jobs=4)
    [result] = session.run([AnalysisRequest(source=open("victim.c").read(),
                                            engine="pht")])
    print(result.report.summary())

Convenience wrappers (:meth:`analyze`, :meth:`repair`, :meth:`lint`)
cover the one-request case and raise request errors instead of
capturing them.

Each request expands into independent ``(function, engine)`` work items
that the scheduler fans out with crash isolation, timeouts, retries, and
content-addressed caching (see :mod:`repro.sched.scheduler` and
:mod:`repro.sched.cache`).  Item results are reassembled in request
order, so output is byte-identical across ``jobs`` settings and across
cached/uncached runs.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.analysis.lint import LintReport, lint_report_dict, \
    lint_report_from_dict
from repro.clou.engine import CLOU_DEFAULT_CONFIG, ClouConfig, ENGINES
from repro.clou.repair import RepairResult
from repro.clou.report import FunctionReport, ModuleReport
from repro.clou.serialize import compact_json, function_entry_json, \
    function_report_dict, function_report_from_dict, json_object, \
    module_report_dict, module_report_from_dict, module_report_json, \
    repair_result_dict, repair_result_from_dict
from repro.errors import AnalysisError, ReproError
from repro.sched import worker
from repro.sched.cache import ResultCache, item_cache_key
from repro.sched.digest import function_digests
from repro.sched.env import env_cache_dir, env_jobs
from repro.sched.scheduler import run_items
from repro.sched.stats import ItemStats, SessionStats

__all__ = ["AnalysisRequest", "AnalysisResult", "ClouSession",
           "REQUEST_SCHEMA_VERSION"]

_KINDS = ("analyze", "repair", "lint")

#: Version of the AnalysisRequest/AnalysisResult wire dicts (the daemon
#: protocol rides on these).  Bump on incompatible field changes; both
#: ``from_dict`` sides reject versions they do not know.
REQUEST_SCHEMA_VERSION = 1

#: Reports a session keeps decoded in memory, by cache key (LRU): the
#: ones it last read from or wrote to its :class:`ResultCache`.  A
#: daemon's unchanged functions then hit without a disk read or a
#: decode.  64 reports of the OpenSSL-shaped unit are about 4 MB.
_RESIDENT_SIZE = 64


@dataclass
class _Resident:
    """A report the session keeps decoded, and once a response has
    encoded it, its stable function entry as compact JSON with its
    class counts (:func:`repro.clou.serialize.function_entry_json`)."""

    value: object
    entry: tuple | None = None


@dataclass(frozen=True)
class AnalysisRequest:
    """One unit of user intent: analyze, repair, or lint one source.

    This is the single currency of the session API *and* the daemon
    wire protocol: build one with :meth:`analyze` / :meth:`repair` /
    :meth:`lint`, pass it to
    :meth:`ClouSession.run` (or the single-request convenience methods),
    or ship it across a socket via :meth:`to_dict` /
    :meth:`from_dict`.
    """

    source: str
    kind: str = "analyze"               # 'analyze' | 'repair' | 'lint'
    engine: str = "pht"                 # detection engine (analyze/repair)
    name: str = ""                      # module name (e.g. the file path)
    functions: tuple[str, ...] = ()     # () = every public function
    config: ClouConfig | None = None    # None = the session's config
    secrets: tuple[str, ...] = ()       # lint: secret symbol names
    public: tuple[str, ...] = ()        # lint: exemptions from the default
    strategy: str = "lfence"            # repair: 'lfence' | 'protect'

    # -- constructors ---------------------------------------------------

    @classmethod
    def analyze(cls, source: str, *, engine: str = "pht", name: str = "",
                functions: tuple[str, ...] = (),
                config: ClouConfig | None = None) -> "AnalysisRequest":
        """An analyze request over C source text."""
        return cls(source=source, kind="analyze", engine=engine, name=name,
                   functions=tuple(functions), config=config)

    @classmethod
    def repair(cls, source: str, *, engine: str = "pht", name: str = "",
               functions: tuple[str, ...] = (),
               config: ClouConfig | None = None,
               strategy: str = "lfence") -> "AnalysisRequest":
        """A fence-repair request over C source text."""
        return cls(source=source, kind="repair", engine=engine, name=name,
                   functions=tuple(functions), config=config,
                   strategy=strategy)

    @classmethod
    def lint(cls, source: str, *, name: str = "",
             secrets: tuple[str, ...] = (),
             public: tuple[str, ...] = ()) -> "AnalysisRequest":
        """A constant-time lint request over C source text."""
        return cls(source=source, kind="lint", name=name,
                   secrets=tuple(secrets), public=tuple(public))

    # -- wire form ----------------------------------------------------

    def to_dict(self) -> dict:
        """The versioned wire dict (byte-stable once JSON-encoded with
        sorted keys)."""
        return {
            "v": REQUEST_SCHEMA_VERSION,
            "kind": self.kind,
            "source": self.source,
            "engine": self.engine,
            "name": self.name,
            "functions": list(self.functions),
            "config": (self.config.to_dict()
                       if self.config is not None else None),
            "secrets": list(self.secrets),
            "public": list(self.public),
            "strategy": self.strategy,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisRequest":
        if not isinstance(data, dict):
            raise ValueError("AnalysisRequest.from_dict needs a dict")
        version = data.get("v")
        if version != REQUEST_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported AnalysisRequest schema v{version!r} "
                f"(this build speaks v{REQUEST_SCHEMA_VERSION})")
        kind = data.get("kind", "analyze")
        if kind not in _KINDS:
            raise ValueError(f"unknown request kind {kind!r}; "
                             f"choose from {_KINDS}")
        config = data.get("config")
        return cls(
            source=data.get("source", ""),
            kind=kind,
            engine=data.get("engine", "pht"),
            name=data.get("name", ""),
            functions=tuple(data.get("functions", ())),
            config=(ClouConfig.from_dict(config)
                    if config is not None else None),
            secrets=tuple(data.get("secrets", ())),
            public=tuple(data.get("public", ())),
            strategy=data.get("strategy", "lfence"),
        )


@dataclass
class AnalysisResult:
    """The outcome of one request.  Exactly one of ``report`` /
    ``repairs`` / ``lint`` is populated on success (matching the request
    kind); ``error``/``exception`` capture request-level failures such
    as parse errors, leaving sibling requests unaffected."""

    request: AnalysisRequest
    report: ModuleReport | None = None
    repairs: list[RepairResult] | None = None
    lint: LintReport | None = None
    error: str | None = None
    exception: Exception | None = None
    stats: SessionStats = field(default_factory=SessionStats)
    # The session's resident entries of ``report.functions``, in order
    # (None where a report is not resident): :meth:`to_json` encodes
    # each one once.
    resident: list = field(default_factory=list, repr=False,
                           compare=False)

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict:
        """The versioned wire dict.  Reports use their *stable* JSON
        form (no wall-clock fields), so a daemon response serializes
        byte-identically to a fresh CLI run; ``exception`` objects never
        cross the wire (``error`` carries the message)."""
        return self._fields(module_report_dict(self.report, stable=True)
                            if self.report is not None else None)

    def to_json(self) -> bytes:
        """``compact_json(self.to_dict())``, byte for byte: compact JSON
        in UTF-8, with each resident function entry encoded once (the
        text is kept on the session's resident entry and spliced into
        every later response that hits it)."""
        if self.report is None:
            return compact_json(self.to_dict())
        entries = []
        for function, resident in zip(
                self.report.functions,
                self.resident or [None] * len(self.report.functions)):
            if resident is None:
                entries.append(function_entry_json(function))
                continue
            if resident.entry is None:
                resident.entry = function_entry_json(function)
            entries.append(resident.entry)
        report = module_report_json(self.report, entries)
        return json_object(
            (key, report if key == "report" else compact_json(value))
            for key, value in self._fields(None).items())

    def _fields(self, report: dict | None) -> dict:
        return {
            "v": REQUEST_SCHEMA_VERSION,
            "request": self.request.to_dict(),
            "report": report,
            "repairs": ([repair_result_dict(r) for r in self.repairs]
                        if self.repairs is not None else None),
            "lint": (lint_report_dict(self.lint)
                     if self.lint is not None else None),
            "error": self.error,
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisResult":
        if not isinstance(data, dict):
            raise ValueError("AnalysisResult.from_dict needs a dict")
        version = data.get("v")
        if version != REQUEST_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported AnalysisResult schema v{version!r} "
                f"(this build speaks v{REQUEST_SCHEMA_VERSION})")
        report = data.get("report")
        repairs = data.get("repairs")
        lint = data.get("lint")
        stats = data.get("stats")
        return cls(
            request=AnalysisRequest.from_dict(data["request"]),
            report=(module_report_from_dict(report)
                    if report is not None else None),
            repairs=([repair_result_from_dict(r) for r in repairs]
                     if repairs is not None else None),
            lint=(lint_report_from_dict(lint)
                  if lint is not None else None),
            error=data.get("error"),
            stats=(SessionStats.from_dict(stats)
                   if stats is not None else SessionStats()),
        )


def _decode(kind: str, report: dict):
    """A cached report dict back to its report object."""
    if kind == "analyze":
        return function_report_from_dict(report)
    return lint_report_from_dict(report)


@dataclass
class _Item:
    """One scheduled unit of work, bookkeeping-side."""

    request_index: int
    function: str                  # "" for lint (whole-module) items
    payload: dict
    label: str
    cache_key: str | None = None   # None = uncacheable (repair)
    cached_value: object = None
    outcome_value: object = None
    resident: _Resident | None = None  # the session's entry for the value
    stats: ItemStats | None = None
    corrupt: int = 0               # corrupt cache entries hit by the probe


class ClouSession:
    """Configuration + executor + cache for a batch of Clou analyses.

    Parameters
    ----------
    config:
        Default :class:`ClouConfig` for requests that do not carry one.
    jobs:
        Worker process count; ``None`` reads ``$REPRO_JOBS`` (default 1,
        the deterministic serial path).
    timeout:
        Per-item wall-clock limit in seconds.  In parallel mode a hung
        item is hard-killed at the deadline; the serial path relies on
        the engines' cooperative ``ClouConfig.timeout_seconds`` budget.
    retries:
        Extra attempts for crashed workers / transient failures.
        Wall-clock and stall kills also retry when the dead attempt
        left a checkpoint to resume from.
    cache / cache_dir:
        On-disk result cache.  ``cache_dir=None`` falls back to
        ``$REPRO_CACHE_DIR``; caching is off when neither is set or when
        ``cache=False``.  Only clean, *complete* results are stored:
        errored, timed-out or skipped reports never enter the cache.
        The last :data:`_RESIDENT_SIZE` reports read from or written to
        it stay decoded in memory, so a repeated probe skips the disk.
    memory_limit_mb:
        Per-worker address-space ceiling (``RLIMIT_AS``); a worker
        exceeding it dies with a recoverable MemoryError and the item
        resumes from its last checkpoint.  Parallel mode only.
    stall_timeout:
        Heartbeat limit in seconds: a worker that streams no checkpoint
        for this long is presumed hung and killed (distinct from
        ``timeout``, which bounds total item time — a slow-but-beating
        item survives the stall check).  Parallel mode only.
    """

    def __init__(self, config: ClouConfig | None = None, *,
                 jobs: int | None = None, timeout: float | None = None,
                 retries: int = 1, cache: bool = True,
                 cache_dir: str | None = None,
                 memory_limit_mb: int | None = None,
                 stall_timeout: float | None = None):
        self.config = config if config is not None else CLOU_DEFAULT_CONFIG
        self.jobs = max(1, jobs) if jobs is not None else env_jobs(default=1)
        self.timeout = timeout
        self.retries = retries
        self.memory_limit_mb = memory_limit_mb
        self.stall_timeout = stall_timeout
        directory = cache_dir if cache_dir is not None else env_cache_dir()
        self.cache = ResultCache(directory) if (cache and directory) else None
        self.stats = SessionStats(jobs=self.jobs)
        self._resident: "OrderedDict[str, _Resident]" = OrderedDict()

    # -- public API --------------------------------------------------------

    def run(self, requests: list[AnalysisRequest], *,
            deadline: float | None = None) -> list[AnalysisResult]:
        """Run a batch of requests; per-request failures are captured in
        the corresponding :class:`AnalysisResult`, never raised.

        ``deadline`` is a wall-clock Unix timestamp (``time.time()``
        domain — the daemon threads the client's envelope deadline
        here).  Work items clamp their cooperative search budget to the
        remaining time, so an over-deadline batch degrades (verdicts
        move toward *unknown*, reported incomplete, never cached)
        instead of overrunning.  The deadline never reaches cache keys
        or report config, so ``--json`` output on paths that finish in
        time is byte-identical to an undeadlined run.
        """
        started = time.monotonic()
        results = [AnalysisResult(request=req) for req in requests]
        items: list[_Item] = []
        for index, request in enumerate(requests):
            try:
                items.extend(self._expand(index, request))
            except ReproError as error:
                results[index].error = str(error)
                results[index].exception = error
        self._execute(items, deadline=deadline)
        batch = SessionStats(jobs=self.jobs)
        for index, result in enumerate(results):
            own = [item for item in items if item.request_index == index]
            self._assemble(result, own)
            result.stats.jobs = self.jobs
            result.stats.wall_seconds = time.monotonic() - started
            batch.merge(result.stats)
        batch.wall_seconds = time.monotonic() - started
        self.stats.merge(batch)
        return results

    def _single(self, request: AnalysisRequest, kind: str) -> AnalysisResult:
        """Run one request of ``kind``, raising its exception (parse
        errors and the like) instead of capturing it."""
        if not isinstance(request, AnalysisRequest):
            raise TypeError(
                f"ClouSession.{kind}() takes an AnalysisRequest, got "
                f"{type(request).__name__}; build one with "
                f"AnalysisRequest.{kind}(...)")
        if request.kind != kind:
            raise AnalysisError(
                f"ClouSession.{kind}() got a {request.kind!r} request")
        [result] = self.run([request])
        if result.exception is not None:
            raise result.exception
        return result

    def analyze(self, request: AnalysisRequest) -> ModuleReport:
        """Analyze one ``analyze`` request and return its
        :class:`ModuleReport`; raises on parse errors."""
        return self._single(request, "analyze").report

    def repair(self, request: AnalysisRequest) -> list[RepairResult]:
        """Fence-repair one ``repair`` request; raises on parse errors."""
        return self._single(request, "repair").repairs

    def lint(self, request: AnalysisRequest) -> LintReport:
        """Lint one ``lint`` request; raises on any request error."""
        result = self._single(request, "lint")
        if result.error is not None:
            raise AnalysisError(result.error)
        return result.lint

    # -- request expansion -------------------------------------------------

    def _config_for(self, request: AnalysisRequest) -> ClouConfig:
        return request.config if request.config is not None else self.config

    def _expand(self, index: int, request: AnalysisRequest) -> list[_Item]:
        if request.kind not in _KINDS:
            raise AnalysisError(f"unknown request kind {request.kind!r}; "
                                f"choose from {_KINDS}")
        config = self._config_for(request)
        if request.kind == "lint":
            worker.module_for(request.source, request.name)  # parse errors
            key = None
            if self.cache is not None:
                key = item_cache_key(
                    kind="lint", source=request.source,
                    secrets=request.secrets, public=request.public)
            payload = {
                "kind": "lint", "source": request.source,
                "name": request.name, "config": None,
                "secrets": request.secrets, "public": request.public,
            }
            label = f"lint:{request.name or '<module>'}"
            return [_Item(request_index=index, function="",
                          payload=payload, label=label, cache_key=key)]
        if request.engine not in ENGINES:
            raise AnalysisError(
                f"unknown engine {request.engine!r}; choose from "
                f"{sorted(ENGINES)}")
        module = worker.module_for(request.source, request.name)
        names = request.functions or tuple(
            f.name for f in module.public_functions())
        # Function-granular keying (incremental re-analysis): an edit to
        # one function only moves that function's cache address.  A
        # requested name the module does not define keys on the
        # module-level digest.  Without a cache there is nothing to key.
        keyed = request.kind == "analyze" and self.cache is not None
        digests = function_digests(module) if keyed else {}
        items = []
        for function_name in names:
            payload = {
                "kind": request.kind, "source": request.source,
                "name": request.name, "function": function_name,
                "engine": request.engine, "config": config.to_dict(),
            }
            key = None
            if keyed:
                key = item_cache_key(
                    kind="analyze", source=request.source,
                    source_key=digests.get(function_name, ""),
                    function=function_name, engine=request.engine,
                    config_key=config.cache_key())
            if request.kind == "repair":
                payload["strategy"] = request.strategy
            items.append(_Item(
                request_index=index, function=function_name,
                payload=payload, cache_key=key,
                label=f"{function_name}/{request.engine}"))
        return items

    # -- execution ---------------------------------------------------------

    def _execute(self, items: list[_Item],
                 deadline: float | None = None) -> None:
        misses: list[_Item] = []
        for item in items:
            before = self.cache.corrupt if self.cache is not None else 0
            cached = self._probe_cache(item)
            item.corrupt = ((self.cache.corrupt - before)
                            if self.cache is not None else 0)
            if cached is not None:
                item.cached_value = cached
                item.stats = ItemStats(label=item.label,
                                       kind=item.payload["kind"],
                                       cache="hit")
            else:
                misses.append(item)
        timeout = self.timeout
        if deadline is not None:
            # The deadline rides in the payload (the worker clamps its
            # cooperative search budget) — injected *after* cache keys
            # were computed in _expand, so it can never move an item's
            # cache address.  The parallel-mode hard kill is clamped to
            # the remaining wall budget as a backstop.
            for item in misses:
                item.payload["deadline"] = deadline
            remaining = max(0.1, deadline - time.time())
            timeout = remaining if timeout is None else min(timeout,
                                                            remaining)
        outcomes = run_items(
            worker.execute_item, [item.payload for item in misses],
            jobs=self.jobs, timeout=timeout, retries=self.retries,
            memory_limit_mb=self.memory_limit_mb,
            stall_timeout=self.stall_timeout)
        for item, outcome in zip(misses, outcomes):
            kind = item.payload["kind"]
            cache_state = "miss" if (self.cache is not None
                                     and item.cache_key) else "off"
            item.stats = ItemStats(
                label=item.label, kind=kind, elapsed=outcome.elapsed,
                attempts=outcome.attempts, cache=cache_state,
                cache_corrupt=bool(item.corrupt),
                timed_out=outcome.timed_out, crashed=outcome.crashed,
                errored=not outcome.ok, resumed=outcome.resumed,
                memory_killed=outcome.memory_killed)
            if outcome.ok:
                item.outcome_value = outcome.value
                self._store_cache(item)
            else:
                item.outcome_value = self._errored_value(item, outcome)

    def _errored_value(self, item: _Item, outcome):
        kind = item.payload["kind"]
        if kind == "analyze":
            # A permanently-failed item may still carry a checkpoint:
            # salvage the witnesses found so far as a partial report
            # (verdict degrades to unknown, never cached).
            salvaged = worker.report_from_checkpoint(
                item.payload, outcome.partial, outcome.error)
            if salvaged is not None:
                salvaged.elapsed = outcome.elapsed
                return salvaged
            return FunctionReport(
                function=item.function, engine=item.payload["engine"],
                error=outcome.error, timed_out=outcome.timed_out,
                elapsed=outcome.elapsed)
        if kind == "repair":
            return RepairResult(
                function=item.function, engine=item.payload["engine"],
                fences=[], before=None, after=None, error=outcome.error)
        return outcome.error  # lint: request-level error string

    def _probe_cache(self, item: _Item):
        """The cached report for ``item``: from memory, else from disk,
        else ``None``.  A memory hit returns the very object an earlier
        probe or store decoded, so it is shared by every result that
        hits it; consumers read reports and never mutate them."""
        if self.cache is None or item.cache_key is None:
            return None
        key = item.cache_key
        try:
            self._resident.move_to_end(key)
            item.resident = self._resident[key]
            return item.resident.value
        except KeyError:
            pass
        payload = self.cache.get(key)
        if payload is None:
            return None
        try:
            value = _decode(item.payload["kind"], payload["report"])
        except (KeyError, ValueError, TypeError):
            # Valid JSON at the right schema version, but the report
            # inside does not deserialize — as corrupt as bad bytes.
            self.cache.quarantine(key)
            return None
        item.resident = self._remember(key, value)
        return value

    def _remember(self, key: str, value) -> _Resident:
        resident = self._resident[key] = _Resident(value)
        while len(self._resident) > _RESIDENT_SIZE:
            self._resident.popitem(last=False)
        return resident

    def _store_cache(self, item: _Item) -> None:
        if self.cache is None or item.cache_key is None:
            return
        value = item.outcome_value
        if isinstance(value, FunctionReport):
            if not value.complete:
                # Never cache failures or degraded coverage: a cached
                # entry must be byte-identical to a clean fresh run.
                return
            payload = {"report": function_report_dict(value, stable=False)}
        elif isinstance(value, LintReport):
            payload = {"report": lint_report_dict(value)}
        else:
            return
        if self.cache.put(item.cache_key, payload):
            # Decoded from the payload just written, so the resident
            # copy equals what a disk read of it returns (raw witnesses
            # reduced to transmitters), not the fresh report the caller
            # receives.  Its stable text is the fresh report's all the
            # same, so a response may encode either.
            item.resident = self._remember(
                item.cache_key,
                _decode(item.payload["kind"], payload["report"]))

    # -- assembly ----------------------------------------------------------

    def _assemble(self, result: AnalysisResult, items: list[_Item]) -> None:
        request = result.request
        for item in items:
            if item.stats is not None:
                result.stats.record(item.stats)
        if result.error is not None:
            return
        values = [item.cached_value if item.cached_value is not None
                  else item.outcome_value for item in items]
        if request.kind == "analyze":
            report = ModuleReport(
                name=request.name or "<module>", engine=request.engine,
                functions=list(values), config=self._config_for(request))
            result.stats.candidates = report.candidates
            result.stats.pruned = report.pruned
            result.stats.skipped = report.skipped
            report.stats = result.stats
            result.report = report
            result.resident = [item.resident for item in items]
        elif request.kind == "repair":
            result.repairs = list(values)
        else:
            [value] = values
            if isinstance(value, LintReport):
                result.lint = value
            else:
                result.error = value or "lint failed"
