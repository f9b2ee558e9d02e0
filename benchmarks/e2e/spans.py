"""In-memory span tracing for the end-to-end benchmark.

A :class:`Tracer` wraps public callables of the analysis pipeline (one
entry of :data:`TARGETS` per layer boundary) and records one span per
call -- id, name, start, end, parent span id, request id, thread -- in
memory until the run ends.  Nothing under ``src/`` knows about it: the
wrappers are installed by rebinding attributes, and names that loaded
``repro.*`` modules imported directly (``from repro.clou.acfg import
build_acfg``) are rebound as well.  :meth:`Tracer.uninstall` restores
every original, so one process can alternate traced and untraced
passes.

Request ids: a call of ``ClouSession.run`` or ``ClouClient.analyze``
that is not nested in another span opens a new request; every span and
counter recorded until the next one carries its id.

A target whose module or attribute no longer exists is listed in
:attr:`Tracer.absent` instead of failing, so a later change may delete
a layer without editing the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager

__all__ = ["PER_LAYER_UNITS", "Tracer", "layer_metrics", "load_dump",
           "write_chrome_trace"]


def _after_acfg(tracer, args, result):
    tracer.add("clou.acfg.blocks", len(result.function.blocks))


def _after_saeg(tracer, args, result):
    saeg = args[0]
    tracer.add("clou.aeg.nodes", saeg.size)
    tracer.add("clou.aeg.rf_edges", len(getattr(saeg, "rf", ())))


def _after_search(tracer, args, report):
    tracer.add("clou.engine.candidates", report.candidates)
    tracer.add("clou.engine.witnesses", len(report.witnesses))


def _after_cache_get(tracer, args, payload):
    tracer.add("sched.cache.hits", int(payload is not None))


def _after_decode(tracer, args, message):
    tracer.add("wire.decoded_bytes", len(args[0]))


_COUNT = "count:"

#: (module, attribute path, span name -- or ``count:NAME`` for a bare
#: call counter NAME --, hook run on the result, opens a request).
TARGETS = (
    ("repro.minic.lower", "compile_c", "minic.compile", None, False),
    ("repro.clou.acfg", "build_acfg", "clou.acfg.build", _after_acfg, False),
    ("repro.clou.alias", "AliasAnalysis.__init__", "clou.alias.build",
     None, False),
    ("repro.clou.alias", "AliasAnalysis.may_alias",
     _COUNT + "clou.alias.may_alias_calls", None, False),
    ("repro.clou.aeg", "SAEG.__init__", "clou.aeg.build", _after_saeg, False),
    ("repro.clou.aeg", "SAEG.realizable", "clou.aeg.realize", None, False),
    ("repro.clou.aeg", "SAEG.realizable3", "clou.aeg.realize", None, False),
    ("repro.analysis.interval", "IntervalAnalysis.__init__",
     "analysis.interval", None, False),
    ("repro.clou.engine", "DetectionEngine.run", "clou.engine.search",
     _after_search, False),
    ("repro.clou.serialize", "to_json", "clou.serialize", None, False),
    ("repro.clou.serialize", "module_report_dict", "clou.serialize",
     None, False),
    ("repro.clou.serialize", "function_report_dict", "clou.serialize",
     None, False),
    ("repro.clou.serialize", "function_report_from_dict", "clou.serialize",
     None, False),
    ("repro.sched.digest", "function_digests", "sched.digest", None, False),
    ("repro.sched.cache", "ResultCache.get", "sched.cache.get",
     _after_cache_get, False),
    ("repro.sched.cache", "ResultCache.put", "sched.cache.put", None, False),
    ("repro.sched.session", "ClouSession.run", "sched.session.run",
     None, True),
    ("repro.serve.client", "ClouClient.analyze", "serve.client.analyze",
     None, True),
    ("repro.serve.protocol", "decode_line", "serve.decode", _after_decode,
     False),
)

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS = {
    "minic.compile_s": "s",
    "clou.acfg.build_s": "s",
    "clou.acfg.blocks": "count",
    "clou.alias.build_s": "s",
    "clou.alias.may_alias_calls": "count",
    "clou.aeg.build_s": "s",
    "clou.aeg.nodes": "count",
    "clou.aeg.rf_edges": "count",
    "clou.aeg.realize_calls": "count",
    "clou.aeg.realize_s": "s",
    "analysis.interval_s": "s",
    "clou.engine.init_s": "s",
    "clou.engine.search_s": "s",
    "clou.engine.candidates": "count",
    "clou.engine.witnesses": "count",
    "clou.serialize_s": "s",
    "sched.digest_s": "s",
    "sched.cache.get_calls": "count",
    "sched.cache.put_calls": "count",
    "sched.cache.hit_rate": "ratio",
    "sched.session.run_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.response_bytes": "B",
    "sched.pool.work_s": "s",
    "sched.pool.efficiency": "ratio",
    "sched.parallel_speedup": "x",
    "trace.overhead_frac": "ratio",
}

# Span-derived metrics: outermost inclusive time of a span name, or its
# self time (duration minus the time its child spans cover).
_INCLUSIVE = {
    "minic.compile_s": "minic.compile",
    "clou.acfg.build_s": "clou.acfg.build",
    "clou.alias.build_s": "clou.alias.build",
    "clou.aeg.realize_s": "clou.aeg.realize",
    "analysis.interval_s": "analysis.interval",
    "clou.engine.init_s": "clou.engine.init",
    "clou.serialize_s": "clou.serialize",
    "sched.digest_s": "sched.digest",
}
_SELF = {
    "clou.aeg.build_s": "clou.aeg.build",
    "clou.engine.search_s": "clou.engine.search",
}
_COUNTS = ("clou.acfg.blocks", "clou.alias.may_alias_calls",
           "clou.aeg.nodes", "clou.aeg.rf_edges", "clou.engine.candidates",
           "clou.engine.witnesses")


def _resolve(module_name: str, path: str):
    """``(owner, attribute, original)``, or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attribute)
    else:
        original = getattr(owner, attribute, None)
    if original is None:
        return None
    return owner, attribute, original


class Tracer:
    """Records spans and per-request counters while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, dict[int, int]] = {}
        self.absent: list[str] = []
        self.request = 0
        # Ids are unique across processes, so the daemon's spans and its
        # client's can be analysed as one list.
        self._ids = itertools.count(os.getpid() * 10 ** 9 + 1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def add(self, name: str, amount: int) -> None:
        per_request = self.counts.setdefault(name, {})
        per_request[self.request] = per_request.get(self.request, 0) + amount

    def _span(self, name: str, fn, after, new_request: bool):
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if new_request and not stack:
                self.request += 1
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent,
                              self.request, threading.get_ident()))
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        add = self.add

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            add(name, 1)
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attribute: str, original, wrapper) -> None:
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def install(self) -> None:
        """Wrap every target that exists and rebind direct imports."""
        if self._patches:
            return
        self.absent = []
        functions: dict[int, tuple[object, object]] = {}
        for module_name, path, span, after, new_request in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}:{path}")
                continue
            owner, attribute, original = found
            if span.startswith(_COUNT):
                wrapper = self._counter(span[len(_COUNT):], original)
            else:
                wrapper = self._span(span, original, after, new_request)
            self._patch(owner, attribute, original, wrapper)
            if not isinstance(owner, type):
                functions[id(original)] = (original, wrapper)
        found = _resolve("repro.clou.engine", "ENGINES")
        if found is None:
            self.absent.append("repro.clou.engine:ENGINES")
        else:
            # Every distinct __init__ an engine class runs, inherited or
            # its own; nested super().__init__ spans count once.
            inits = {klass: klass.__dict__["__init__"]
                     for cls in found[2].values() for klass in cls.__mro__
                     if klass is not object and "__init__" in klass.__dict__}
            for klass, original in inits.items():
                self._patch(klass, "__init__", original,
                            self._span("clou.engine.init", original, None,
                                       False))
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                entry = functions.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attribute, value, entry[1])

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, path: str) -> None:
        """Write spans and counters as JSON, atomically (how the traced
        daemon hands its records to the benchmark process)."""
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans,
                       "counts": self.counts, "absent": self.absent},
                      handle)
        os.replace(path + ".tmp", path)


def load_dump(path: str) -> dict:
    """Inverse of :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    data["spans"] = [tuple(span) for span in data["spans"]]
    data["counts"] = {name: {int(request): amount
                             for request, amount in per_request.items()}
                      for name, per_request in data["counts"].items()}
    return data


def _span_totals(spans: list[tuple]) -> tuple[dict, dict, dict]:
    """Per span name: outermost inclusive seconds (a span nested in one
    of the same name is not counted again), self seconds, and the
    durations of the outermost calls."""
    by_id = {span[0]: span for span in spans}
    children: dict[int, float] = {}
    for span in spans:
        if span[4]:
            children[span[4]] = children.get(span[4], 0.0) + span[3] - span[2]
    inclusive: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, list[float]] = {}
    for span in spans:
        span_id, name, start, end, parent_id = span[:5]
        duration = end - start
        own[name] = own.get(name, 0.0) + duration - children.get(span_id, 0.0)
        parent = by_id.get(parent_id)
        while parent is not None and parent[1] != name:
            parent = by_id.get(parent[4])
        if parent is None:
            inclusive[name] = inclusive.get(name, 0.0) + duration
            calls.setdefault(name, []).append(duration)
    return inclusive, own, calls


def layer_metrics(spans: list[tuple], counts: dict[str, dict[int, int]],
                  passes: int) -> dict[str, float]:
    """The span- and counter-derived per-layer metrics, per traced pass
    (times in seconds unless the name says otherwise)."""
    inclusive, own, calls = _span_totals(spans)
    per = max(1, passes)

    def total(name: str) -> int:
        return sum(counts.get(name, {}).values())

    out = {metric: inclusive.get(name, 0.0) / per
           for metric, name in _INCLUSIVE.items()}
    out.update({metric: own.get(name, 0.0) / per
                for metric, name in _SELF.items()})
    out.update({name: total(name) / per for name in _COUNTS})
    out["clou.aeg.realize_calls"] = len(calls.get("clou.aeg.realize", ())) / per
    gets = len(calls.get("sched.cache.get", ()))
    out["sched.cache.get_calls"] = gets / per
    out["sched.cache.put_calls"] = len(calls.get("sched.cache.put", ())) / per
    out["sched.cache.hit_rate"] = (total("sched.cache.hits") / gets
                                   if gets else 0.0)
    runs = calls.get("sched.session.run", ())
    out["sched.session.run_ms"] = (1000.0 * statistics.median(runs)
                                   if runs else 0.0)
    return out


def write_chrome_trace(path: str, processes: list[tuple[int, str, list]]
                       ) -> None:
    """Chrome trace-event JSON (complete events in microseconds), one
    ``pid`` per traced process; open it in Perfetto or chrome://tracing."""
    events = []
    for pid, label, spans in processes:
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": label}})
        for span_id, name, start, end, parent, request, thread in spans:
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": thread,
                "ts": round(start * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": span_id, "parent": parent,
                         "request": request},
            })
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
