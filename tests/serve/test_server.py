"""repro.serve: daemon + client end-to-end over a temp UNIX socket.

The slow analyses here reuse the standard Spectre v1 module, so the
whole file stays in tier-1 time.  Queue-discipline tests (priority,
busy rejection) inject a gated stub session so they test the server's
scheduling, not the analyzer's speed."""

import json
import socket
import threading

import pytest

from repro.clou.serialize import to_json
from repro.sched import AnalysisRequest, AnalysisResult, ClouSession, \
    SessionStats
from repro.serve import (ClouClient, ClouServer, DaemonBusy,
                        DaemonUnreachable, protocol)
from repro.serve.server import encode_result

TWO_VICTIMS = """
uint8_t A[16];
uint8_t B[256 * 512];
uint64_t size_A = 16;
uint64_t tmp;

void victim(uint64_t y) {
    if (y < size_A) {
        uint8_t x = A[y];
        tmp &= B[x * 512];
    }
}

uint64_t bystander(uint64_t y) {
    return y * 2;
}
"""


@pytest.fixture
def served(tmp_path):
    """A live daemon on a temp socket with a serial cached session."""
    session = ClouSession(jobs=1, cache=True,
                          cache_dir=str(tmp_path / "cache"))
    server = ClouServer(session, socket_path=str(tmp_path / "clou.sock"))
    server.start()
    yield server
    server.shutdown()


def _client(server) -> ClouClient:
    return ClouClient(socket_path=server.socket_path)


class TestRoundTrip:
    def test_ping(self, served):
        with _client(served) as client:
            pong = client.ping()
        assert pong["protocol"] == protocol.PROTOCOL_VERSION

    def test_analyze(self, served):
        with _client(served) as client:
            result = client.analyze(
                AnalysisRequest.analyze(TWO_VICTIMS, engine="pht",
                                        name="two.c"))
        assert result.ok
        assert result.report.leaky
        # The stable wire form orders functions canonically.
        assert {f.function for f in result.report.functions} == \
            {"victim", "bystander"}

    def test_result_matches_local_run(self, served):
        request = AnalysisRequest.analyze(TWO_VICTIMS, engine="pht",
                                          name="two.c")
        with _client(served) as client:
            remote = client.analyze(request)
        local = ClouSession(jobs=1, cache=False).analyze(request)
        assert to_json(remote.report, stable=True) == \
            to_json(local, stable=True)

    def test_repair_and_lint_ride_the_same_op(self, served):
        with _client(served) as client:
            repaired = client.analyze(
                AnalysisRequest.repair(TWO_VICTIMS, engine="pht"))
            linted = client.analyze(
                AnalysisRequest.lint(TWO_VICTIMS, secrets=("A",)))
        assert repaired.ok and repaired.repairs[0].fully_repaired
        assert linted.ok and linted.lint.findings

    def test_parse_error_travels_inside_the_result(self, served):
        with _client(served) as client:
            result = client.analyze(AnalysisRequest.analyze("void f( {"))
        assert not result.ok
        assert "expected" in result.error or "parse" in result.error.lower()

    def test_status_counts(self, served):
        with _client(served) as client:
            client.analyze(AnalysisRequest.analyze(TWO_VICTIMS))
            status = client.status()
        assert status["served"] == 1
        assert status["queued"] == 0 and status["running"] == 0
        assert status["stats"]["cache_misses"] == 2


class TestWarmPaths:
    def test_repeat_analysis_is_all_cache_hits(self, served):
        request = AnalysisRequest.analyze(TWO_VICTIMS, engine="pht")
        with _client(served) as client:
            client.analyze(request)
            client.analyze(request)
            stats = client.status()["stats"]
        assert stats["cache_misses"] == 2
        assert stats["cache_hits"] == 2

    def test_one_function_edit_reanalyzes_only_it(self, served):
        edited = TWO_VICTIMS.replace("y * 2", "y * 3")
        with _client(served) as client:
            client.analyze(AnalysisRequest.analyze(TWO_VICTIMS))
            client.analyze(AnalysisRequest.analyze(edited))
            stats = client.status()["stats"]
        assert stats["cache_hits"] == 1    # victim: untouched, warm
        assert stats["cache_misses"] == 3  # bystander: re-analyzed once


class _GatedSession:
    """A stand-in session whose first run blocks until released —
    enough to fill the daemon's queue deterministically."""

    def __init__(self):
        self.stats = SessionStats()
        self.gate = threading.Event()
        self.first = True
        self.ran = []

    def run(self, requests, **kwargs):
        if self.first:
            self.first = False
            self.gate.wait(timeout=10)
        self.ran.extend(request.name for request in requests)
        return [AnalysisResult(request=request) for request in requests]


def _raw_send(sock, op, id, priority=0, name=""):
    request = AnalysisRequest.analyze("int x;", name=name).to_dict()
    sock.sendall(protocol.encode(protocol.make_request(
        op, id=id, priority=priority, request=request)))


def _wait_for(predicate, timeout=5.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not reached in time")


class TestQueueDiscipline:
    def test_priority_orders_the_queue(self, tmp_path):
        session = _GatedSession()
        server = ClouServer(session,
                            socket_path=str(tmp_path / "clou.sock"))
        server.start()
        try:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(server.socket_path)
            with sock, sock.makefile("rb") as lines:
                _raw_send(sock, "analyze", id=0, priority=0, name="gate")
                _wait_for(lambda: server.status()["running"] == 1)
                # Enqueued while the dispatcher is blocked: lower
                # priority value first, FIFO within a priority.
                _raw_send(sock, "analyze", id=1, priority=5, name="late")
                _raw_send(sock, "analyze", id=2, priority=1, name="soon")
                _raw_send(sock, "analyze", id=3, priority=1, name="soon2")
                _wait_for(lambda: server.status()["queued"] == 3)
                session.gate.set()
                order = [protocol.decode_line(lines.readline())["id"]
                         for _ in range(4)]
        finally:
            server.shutdown()
        assert order == [0, 2, 3, 1]
        assert session.ran == ["gate", "soon", "soon2", "late"]

    def test_max_inflight_rejects_busy(self, tmp_path):
        session = _GatedSession()
        server = ClouServer(session,
                            socket_path=str(tmp_path / "clou.sock"),
                            max_inflight=1)
        server.start()
        try:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(server.socket_path)
            with sock, sock.makefile("rb") as lines:
                _raw_send(sock, "analyze", id=0, name="gate")
                _wait_for(lambda: server.status()["running"] == 1)
                with _client(server) as client:
                    with pytest.raises(DaemonBusy, match="busy"):
                        client.analyze(AnalysisRequest.analyze("int x;"))
                session.gate.set()
                reply = protocol.decode_line(lines.readline())
        finally:
            server.shutdown()
        assert reply["ok"]
        # The client retried (default 2 extra attempts) and was load-shed
        # each time; every rejection counts server-side.
        assert server.status()["busy_rejected"] == 3

    def test_tcp_transport(self):
        server = ClouServer(_GatedSession(), port=0)
        server.start()
        try:
            session = server.session
            session.gate.set()
            with ClouClient(port=server.port) as client:
                assert client.ping()["protocol"] == \
                    protocol.PROTOCOL_VERSION
        finally:
            server.shutdown()


class TestClientFailureModes:
    def test_unreachable_socket(self, tmp_path):
        client = ClouClient(socket_path=str(tmp_path / "nothing.sock"))
        with pytest.raises(DaemonUnreachable):
            client.ping()

    def test_no_address_configured(self, monkeypatch):
        from repro.sched.env import SOCKETS_ENV, SOCKET_ENV

        monkeypatch.delenv(SOCKET_ENV, raising=False)
        monkeypatch.delenv(SOCKETS_ENV, raising=False)
        with pytest.raises(DaemonUnreachable, match="no daemon address"):
            ClouClient().ping()

    def test_env_socket_is_the_default_address(self, monkeypatch, served):
        from repro.sched.env import SOCKET_ENV

        monkeypatch.setenv(SOCKET_ENV, served.socket_path)
        with ClouClient() as client:
            assert client.ping()["protocol"] == protocol.PROTOCOL_VERSION

    def test_malformed_line_gets_structured_error(self, served):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(served.socket_path)
        with sock, sock.makefile("rb") as lines:
            sock.sendall(b"this is not json\n")
            reply = protocol.decode_line(lines.readline())
        assert not reply["ok"]
        assert "bad JSON" in reply["error"]


class TestShutdown:
    def test_shutdown_op_releases_the_socket(self, tmp_path):
        import os

        server = ClouServer(ClouSession(jobs=1, cache=False),
                            socket_path=str(tmp_path / "clou.sock"))
        server.start()
        with _client(server) as client:
            client.shutdown()
        _wait_for(lambda: not os.path.exists(server.socket_path))
        with pytest.raises(DaemonUnreachable):
            ClouClient(socket_path=server.socket_path).ping()

    def test_shutdown_is_idempotent(self, served):
        served.shutdown()
        served.shutdown()

    def test_live_socket_refuses_second_daemon(self, served):
        with pytest.raises(OSError, match="live"):
            ClouServer(ClouSession(jobs=1, cache=False),
                       socket_path=served.socket_path).start()

    @pytest.mark.parametrize("transport", ["unix", "tcp"])
    def test_serve_forever_returns_promptly(self, tmp_path, transport):
        # shutdown() must wake the accept() blocked in serve_forever's
        # accept thread; closing the listener alone leaves it blocked
        # until the join timeout.
        import time

        where = ({"socket_path": str(tmp_path / "clou.sock")}
                 if transport == "unix" else {"port": 0})
        server = ClouServer(ClouSession(jobs=1, cache=False), **where)
        server.start()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = (ClouClient(socket_path=server.socket_path)
                  if transport == "unix" else ClouClient(port=server.port))
        with client:
            assert client.ping()["pid"]
        started = time.monotonic()
        server.shutdown()
        thread.join(timeout=1.0)
        assert not thread.is_alive()
        assert time.monotonic() - started < 1.0


class TestCLI:
    def _json_out(self, capsys, argv):
        import repro.cli as cli

        code = cli.main(argv)
        return code, capsys.readouterr().out

    def test_daemon_json_is_byte_identical_to_local(self, tmp_path, capsys,
                                                    monkeypatch):
        from repro.sched.env import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
        path = tmp_path / "two.c"
        path.write_text(TWO_VICTIMS)
        code_local, local = self._json_out(
            capsys, ["analyze", str(path), "--json"])
        server = ClouServer(
            ClouSession(jobs=1, cache=True,
                        cache_dir=str(tmp_path / "cache")),
            socket_path=str(tmp_path / "clou.sock"))
        server.start()
        try:
            code_daemon, remote = self._json_out(
                capsys, ["analyze", str(path), "--json",
                         "--socket", server.socket_path])
        finally:
            server.shutdown()
        assert remote == local
        assert code_daemon == code_local == 1  # Spectre v1 leaks
        json.loads(local)  # and it is valid JSON

    def test_client_falls_back_in_process(self, tmp_path, capsys,
                                          monkeypatch):
        from repro.sched.env import SOCKET_ENV

        monkeypatch.delenv(SOCKET_ENV, raising=False)
        path = tmp_path / "two.c"
        path.write_text(TWO_VICTIMS)
        code_local, local = self._json_out(
            capsys, ["analyze", str(path), "--json", "--no-cache"])
        code_fallback, fallback = self._json_out(
            capsys, ["analyze", str(path), "--json", "--no-cache",
                     "--socket", str(tmp_path / "missing.sock")])
        assert fallback == local
        assert code_fallback == code_local == 1

    def test_client_lint_json_is_byte_identical_to_local(self, tmp_path,
                                                         capsys):
        path = tmp_path / "two.c"
        path.write_text(TWO_VICTIMS)
        code_local, local = self._json_out(
            capsys, ["lint", str(path), "--secrets", "A", "--json",
                     "--no-cache"])
        server = ClouServer(ClouSession(jobs=1, cache=False),
                            socket_path=str(tmp_path / "clou.sock"))
        server.start()
        try:
            code_daemon, remote = self._json_out(
                capsys, ["lint", str(path), "--secrets", "A",
                         "--json", "--no-cache",
                         "--socket", server.socket_path])
            served = server.status()["served"]
        finally:
            server.shutdown()
        assert remote == local
        assert code_daemon == code_local == 0
        assert served == 1  # the daemon, not the fallback, ran it
        json.loads(local)

    def test_client_lint_falls_back_in_process(self, tmp_path, capsys,
                                               monkeypatch):
        from repro.sched.env import SOCKET_ENV

        monkeypatch.delenv(SOCKET_ENV, raising=False)
        path = tmp_path / "two.c"
        path.write_text(TWO_VICTIMS)
        code_local, local = self._json_out(
            capsys, ["lint", str(path), "--json", "--no-cache"])
        code_fallback, fallback = self._json_out(
            capsys, ["lint", str(path), "--json", "--no-cache",
                     "--socket", str(tmp_path / "missing.sock")])
        assert fallback == local
        assert code_fallback == code_local == 0

    def test_client_lint_severity_gate_matches_local(self, tmp_path,
                                                     capsys):
        path = tmp_path / "two.c"
        path.write_text(TWO_VICTIMS)
        server = ClouServer(ClouSession(jobs=1, cache=False),
                            socket_path=str(tmp_path / "clou.sock"))
        server.start()
        try:
            code, _ = self._json_out(
                capsys, ["lint", str(path), "--secrets", "A",
                         "--fail-on-severity", "AT", "--no-cache",
                         "--socket", server.socket_path])
        finally:
            server.shutdown()
        assert code == 1  # the secret-indexed load gates, like local lint

    def test_client_repair_output_is_identical_to_local(self, tmp_path,
                                                        capsys):
        path = tmp_path / "two.c"
        path.write_text(TWO_VICTIMS)
        code_local, local = self._json_out(
            capsys, ["repair", str(path), "--no-cache"])
        server = ClouServer(ClouSession(jobs=1, cache=False),
                            socket_path=str(tmp_path / "clou.sock"))
        server.start()
        try:
            code_daemon, remote = self._json_out(
                capsys, ["repair", str(path), "--no-cache",
                         "--socket", server.socket_path])
            served = server.status()["served"]
        finally:
            server.shutdown()
        assert remote == local
        assert code_daemon == code_local == 0
        assert served == 1
        assert "lfence" in local

    def test_client_repair_falls_back_in_process(self, tmp_path, capsys,
                                                 monkeypatch):
        from repro.sched.env import SOCKET_ENV

        monkeypatch.delenv(SOCKET_ENV, raising=False)
        path = tmp_path / "two.c"
        path.write_text(TWO_VICTIMS)
        code_local, local = self._json_out(
            capsys, ["repair", str(path), "--no-cache"])
        code_fallback, fallback = self._json_out(
            capsys, ["repair", str(path), "--no-cache",
                     "--socket", str(tmp_path / "missing.sock")])
        assert fallback == local
        assert code_fallback == code_local == 0

    def test_client_lint_busy_daemon_degrades(self, tmp_path, capsys):
        session = _GatedSession()
        server = ClouServer(session,
                            socket_path=str(tmp_path / "clou.sock"),
                            max_inflight=1)
        server.start()
        path = tmp_path / "two.c"
        path.write_text(TWO_VICTIMS)
        try:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(server.socket_path)
            with sock, sock.makefile("rb"):
                _raw_send(sock, "analyze", id=0, name="gate")
                _wait_for(lambda: server.status()["running"] == 1)
                code = __import__("repro.cli", fromlist=["main"]).main(
                    ["lint", str(path), "--socket",
                     server.socket_path])
                session.gate.set()
        finally:
            server.shutdown()
        assert code == 3  # EXIT_INCOMPLETE: busy is not a fallback case

    def test_local_run_never_builds_a_client(self, tmp_path, capsys,
                                             monkeypatch):
        import repro.serve

        def refuse(*args, **kwargs):
            raise AssertionError("ClouClient built with no daemon address")

        monkeypatch.setattr(repro.serve, "ClouClient", refuse)
        path = tmp_path / "two.c"
        path.write_text(TWO_VICTIMS)
        for argv, expected in ((["analyze", str(path), "--json"], 1),
                               (["lint", str(path)], 0),
                               (["repair", str(path)], 0)):
            code, out = self._json_out(capsys, argv + ["--no-cache"])
            assert code == expected and out

    def test_env_socket_routes_to_the_daemon(self, tmp_path, capsys,
                                             monkeypatch):
        from repro.sched.env import SOCKET_ENV

        path = tmp_path / "two.c"
        path.write_text(TWO_VICTIMS)
        code_local, local = self._json_out(
            capsys, ["analyze", str(path), "--json", "--no-cache"])
        server = ClouServer(ClouSession(jobs=1, cache=False),
                            socket_path=str(tmp_path / "clou.sock"))
        server.start()
        monkeypatch.setenv(SOCKET_ENV, server.socket_path)
        try:
            code_daemon, remote = self._json_out(
                capsys, ["analyze", str(path), "--json", "--no-cache"])
            served = server.status()["served"]
        finally:
            server.shutdown()
        assert remote == local
        assert code_daemon == code_local == 1
        assert served == 1

    def test_client_status_and_shutdown(self, tmp_path, capsys):
        server = ClouServer(ClouSession(jobs=1, cache=False),
                            socket_path=str(tmp_path / "clou.sock"))
        server.start()
        code, out = self._json_out(
            capsys, ["client", "status", "--socket", server.socket_path])
        assert code == 0
        assert json.loads(out)["served"] == 0
        code, _ = self._json_out(
            capsys, ["client", "shutdown", "--socket", server.socket_path])
        assert code == 0
        _wait_for(lambda: server._stop.is_set())

    def test_client_unreachable_status_fails(self, tmp_path, capsys):
        import repro.cli as cli

        code = cli.main(["client", "status", "--socket",
                         str(tmp_path / "missing.sock")])
        assert code == 1


def _wire_line(id, result) -> bytes:
    """The response line as the protocol writes the library wire form."""
    return protocol.encode(protocol.make_response(id, result=result.to_dict()))


class TestEncodeOnce:
    """``encode_result`` splices the encoded entries of resident reports
    into the line; it is the protocol's line for ``to_dict()``, byte for
    byte."""

    def test_analyze_hits_and_misses(self, tmp_path):
        session = ClouSession(jobs=1, cache=True, cache_dir=str(tmp_path))
        edited = TWO_VICTIMS.replace("y * 2", "y * 3")
        ledger = []
        for number, source in enumerate(
                (TWO_VICTIMS, TWO_VICTIMS, edited, edited, TWO_VICTIMS)):
            [result] = session.run([AnalysisRequest.analyze(
                source, engine="pht", name="two.c")])
            ledger.append((result.stats.cache_hits,
                           result.stats.cache_misses))
            assert encode_result(number, result) == \
                _wire_line(number, result)
            # A second encode reads the kept entries.
            assert encode_result(number, result) == \
                _wire_line(number, result)
        assert ledger == [(0, 2), (2, 0), (1, 1), (2, 0), (2, 0)]
        assert all(resident.entry is not None
                   for resident in session._resident.values())

    def test_every_other_response_kind(self, tmp_path):
        from repro.clou.engine import ClouConfig

        session = ClouSession(jobs=1, cache=True, cache_dir=str(tmp_path))
        capped = ClouConfig(max_witnesses_per_function=1)
        requests = [
            AnalysisRequest.lint(TWO_VICTIMS, secrets=("A",)),
            AnalysisRequest.repair(TWO_VICTIMS, engine="pht"),
            AnalysisRequest.analyze("void f( {"),
            AnalysisRequest.analyze(TWO_VICTIMS, engine="nope"),
            # Incomplete reports are never resident.
            AnalysisRequest.analyze(TWO_VICTIMS, config=capped),
        ]
        results = session.run(requests)
        results += session.run(requests[-1:], deadline=0.0)
        results += ClouSession(jobs=1, cache=False).run(requests[-1:])
        assert not results[-1].report.complete
        for number, result in enumerate(results):
            assert encode_result(number, result) == \
                _wire_line(number, result)

    def test_socket_lines_are_canonical(self, served):
        request = AnalysisRequest.analyze(TWO_VICTIMS, engine="pht",
                                          name="two.c")
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(served.socket_path)
            lines = sock.makefile("rb")
            for number in range(3):
                sock.sendall(protocol.encode(protocol.make_request(
                    "analyze", id=number, request=request.to_dict(),
                    deadline=0.0 if number == 2 else None)))
                line = lines.readline()
                envelope = protocol.decode_line(line)
                # The compact encoding of what it decodes to.
                assert protocol.encode(envelope) == line
                if number < 2:
                    local = ClouSession(jobs=1, cache=False).run([request])
                    assert envelope["result"]["report"] == \
                        local[0].to_dict()["report"]
                else:
                    assert line == protocol.encode(protocol.error_response(
                        number, "deadline exceeded before the request "
                        "was queued", code="deadline_exceeded"))


class TestLatencyStatus:
    def test_status_ranks_queue_wait_and_service_time(self, served):
        empty = {"p50_ms": None, "p99_ms": None}
        with _client(served) as client:
            assert client.status()["latency"] == {
                "window": 0, "queue_wait": empty, "service": empty}
            results = [client.analyze(AnalysisRequest.analyze(TWO_VICTIMS))
                       for _ in range(3)]
            latency = client.status()["latency"]
        assert latency["window"] == 3
        for name in ("queue_wait", "service"):
            assert 0 <= latency[name]["p50_ms"] <= latency[name]["p99_ms"]
        assert latency["service"]["p50_ms"] > 0
        # Timings stay out of the stable report.
        for result in results:
            assert "latency" not in to_json(result.report, stable=True)

    def test_window_is_bounded(self, tmp_path, monkeypatch):
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "LATENCY_WINDOW", 2)
        server = ClouServer(ClouSession(jobs=1, cache=False),
                            socket_path=str(tmp_path / "clou.sock"))
        server.start()
        try:
            with _client(server) as client:
                for _ in range(3):
                    client.analyze(AnalysisRequest.analyze("int x;"))
                assert client.status()["latency"]["window"] == 2
        finally:
            server.shutdown()

    def test_percentiles_are_nearest_rank(self):
        from repro.serve.server import _percentiles

        assert _percentiles([0.001 * n for n in range(1, 101)]) == \
            {"p50_ms": 50.0, "p99_ms": 99.0}
        assert _percentiles([0.004, 0.002]) == {"p50_ms": 2.0,
                                                "p99_ms": 4.0}


class TestHeap:
    """After each reply the dispatcher collects what the request left
    unreachable and freezes the survivors (``settle_heap``)."""

    def test_edit_stream_strands_nothing_and_does_not_grow(
            self, tmp_path, monkeypatch):
        import gc
        import re

        from repro.bench.synthetic import generate_function
        from repro.sched import worker
        from repro.serve import server as server_module

        settled = threading.Semaphore(0)
        settle = server_module.settle_heap

        def counted():
            settle()
            settled.release()
        monkeypatch.setattr(server_module, "settle_heap", counted)
        functions = [generate_function(f"fn_{index}", rounds, seed=index)
                     for index, rounds in enumerate((2, 3, 2, 4))]
        acc = re.compile(r"uint64_t acc = \d+;")
        worker.clear_caches()
        gc.collect()
        session = ClouSession(jobs=1, cache=True,
                              cache_dir=str(tmp_path / "cache"))
        server = ClouServer(session, socket_path=str(tmp_path / "s.sock"))
        server.start()
        tracked = {}
        try:
            with _client(server) as client:
                for number in range(200):
                    if number % 4 != 3:
                        index = number % len(functions)
                        functions[index] = acc.sub(
                            f"uint64_t acc = {number};", functions[index])
                    result = client.analyze(AnalysisRequest.analyze(
                        "\n\n".join(functions), name="unit.c"))
                    assert result.ok
                    assert settled.acquire(timeout=60)
                    if number in (99, 199):
                        tracked[number] = gc.get_freeze_count() \
                            + len(gc.get_objects())
        finally:
            server.shutdown()  # also unfreezes
            worker.clear_caches()
        # 100 more requests leave the heap as large as they found it
        # (give or take the memos' turnover).
        assert tracked[199] - tracked[99] < 2000, tracked
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            stranded = [type(obj).__name__ for obj in gc.garbage
                        if type(obj).__module__.startswith("repro.")]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert stranded == []
