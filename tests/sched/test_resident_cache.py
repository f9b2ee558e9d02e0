"""The session's resident reports: a daemon edit stream served from
memory, disk and fresh runs must print what a cold session prints.

A cached :class:`ClouSession` keeps the reports it last read from or
wrote to its result cache decoded in memory (``_RESIDENT_SIZE``, LRU by
cache key).  The stream below is shaped like the end-to-end benchmark's
``EditStream`` — groups of edits to the ``acc`` initializer of one
function followed by an unchanged re-send — except that an edit cycles
each function through three values, so a function returns to a body it
had before, after its key has left memory: those probes hit on disk.
The bound is lowered so that the stream is several times longer than it.
"""

from __future__ import annotations

import re

import pytest

from repro.clou.postprocess import group_witnesses, postprocess
from repro.clou.serialize import function_report_dict, to_json
from repro.sched import AnalysisRequest, ClouSession
from repro.sched import session as session_module
from repro.serve import ClouClient, ClouServer
from repro.bench.synthetic import generate_function

FUNCTIONS = 4
BOUND = 5
VARIANTS = 3
_ACC_INIT = re.compile(r"uint64_t acc = \d+;")


def _functions() -> list[str]:
    return [generate_function(f"fn_{index}", 1 + index % 2, seed=40 + index)
            for index in range(FUNCTIONS)]


def _stream(length: int):
    """``(source, bodies)`` per request: edits in groups of three, then an
    unchanged re-send.  ``bodies`` names each function's current body,
    the thing its cache key covers."""
    functions = _functions()
    variant = [0] * FUNCTIONS
    edits = 0
    for sent in range(length):
        if sent % 4 != 3:
            index = edits % FUNCTIONS
            edits += 1
            variant[index] = (variant[index] + 1) % VARIANTS
            functions[index] = _ACC_INIT.sub(
                f"uint64_t acc = {variant[index]};", functions[index])
        yield "\n\n".join(functions), tuple(enumerate(variant))


def _request(source: str) -> AnalysisRequest:
    return AnalysisRequest.analyze(source, engine="pht", name="edit.c")


_cold: dict[str, str] = {}


def _cold_json(source: str) -> str:
    if source not in _cold:
        report = ClouSession(jobs=1, cache=False).analyze(_request(source))
        _cold[source] = to_json(report, stable=True)
    return _cold[source]


class _SharedReports:
    """Every report object a result hands out, with its serialized form
    when first seen: a report that two results share must never change."""

    def __init__(self):
        self.first: dict[int, tuple[object, dict]] = {}
        self.seen_twice = 0

    def observe(self, report) -> None:
        for function in report.functions:
            held = self.first.get(id(function))
            if held is None:
                self.first[id(function)] = (
                    function, function_report_dict(function))
            else:
                assert held[0] is function
                self.seen_twice += 1

    def consume(self, result) -> None:
        """What the CLI and the daemon do with a result."""
        result.to_dict()
        to_json(result.report)
        result.report.summary()
        result.report.transmitters
        for function in result.report.functions:
            function.summary()
            group_witnesses(postprocess(function).kept)

    def check_unchanged(self) -> None:
        for function, serialized in self.first.values():
            assert function_report_dict(function) == serialized


@pytest.fixture
def small_bound(monkeypatch):
    monkeypatch.setattr(session_module, "_RESIDENT_SIZE", BOUND)


def test_edit_stream_through_a_session(tmp_path, small_bound):
    session = ClouSession(jobs=1, cache=True, cache_dir=str(tmp_path))
    stored: set = set()
    shared = _SharedReports()
    memory_hits = disk_hits = 0
    for number, (source, bodies) in enumerate(_stream(6 * BOUND)):
        disk_before = session.cache.hits
        [result] = session.run([_request(source)])
        assert result.ok, result.error
        assert to_json(result.report, stable=True) == _cold_json(source), \
            number
        expected_hits = sum(body in stored for body in bodies)
        assert (result.stats.cache_hits, result.stats.cache_misses) == \
            (expected_hits, FUNCTIONS - expected_hits), number
        stored.update(bodies)
        disk = session.cache.hits - disk_before
        disk_hits += disk
        memory_hits += expected_hits - disk
        assert len(session._resident) <= BOUND
        shared.observe(result.report)
        shared.consume(result)
    # The stream exercised all three paths and the bound.
    assert memory_hits and disk_hits and len(stored) > BOUND
    assert shared.seen_twice
    shared.check_unchanged()


def test_memory_hit_equals_disk_hit(tmp_path):
    source, _ = next(_stream(1))
    warm = ClouSession(jobs=1, cache=True, cache_dir=str(tmp_path))
    warm.run([_request(source)])
    disk_before = warm.cache.hits
    [from_memory] = warm.run([_request(source)])
    assert warm.cache.hits == disk_before       # no disk read
    reader = ClouSession(jobs=1, cache=True, cache_dir=str(tmp_path))
    [from_disk] = reader.run([_request(source)])
    assert reader.cache.hits == FUNCTIONS       # every hit read the disk
    assert from_memory.stats.cache_hits == from_disk.stats.cache_hits \
        == FUNCTIONS
    assert to_json(from_memory.report) == to_json(from_disk.report)
    for held, read in zip(from_memory.report.functions,
                          from_disk.report.functions):
        assert held == read


def test_unwritable_cache_keeps_nothing_resident(tmp_path):
    # A put that fails leaves nothing on disk, so nothing may hit.
    blocker = tmp_path / "cache"
    blocker.write_text("not a directory")
    session = ClouSession(jobs=1, cache=True, cache_dir=str(blocker))
    source, _ = next(_stream(1))
    for _ in range(2):
        [result] = session.run([_request(source)])
        assert result.stats.cache_hits == 0
    assert not session._resident


def test_edit_stream_through_the_daemon(tmp_path, small_bound):
    server = ClouServer(
        ClouSession(jobs=1, cache=True, cache_dir=str(tmp_path / "cache")),
        socket_path=str(tmp_path / "clou.sock"))
    server.start()
    stored: set = set()
    try:
        with ClouClient(socket_path=server.socket_path) as client:
            for number, (source, bodies) in enumerate(_stream(4 * BOUND)):
                result = client.analyze(_request(source))
                assert result.ok, result.error
                assert to_json(result.report, stable=True) == \
                    _cold_json(source), number
                expected_hits = sum(body in stored for body in bodies)
                assert (result.stats.cache_hits,
                        result.stats.cache_misses) == \
                    (expected_hits, FUNCTIONS - expected_hits), number
                stored.update(bodies)
    finally:
        server.shutdown()
    assert len(server.session._resident) == BOUND
