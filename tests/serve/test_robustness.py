"""Fleet-grade daemon robustness: deadlines, retry/backoff failover,
per-tenant admission control, and protocol failure modes, including
peers that speak another protocol version.

Scripted fake daemons (:class:`_FakeDaemon`) exercise the *client's*
handling of broken peers; raw sockets against a live :class:`ClouServer`
exercise the *server's* handling of broken clients.  Every failure must
resolve to the documented taxonomy — DaemonUnreachable / DaemonBusy /
DeadlineExceeded / AnalysisError — never a hang or an unhandled
exception, and the daemon must keep serving other connections
afterwards."""

import json
import socket
import threading
import time

import pytest

from repro.errors import AnalysisError
from repro.sched import AnalysisRequest, AnalysisResult, SessionStats
from repro.serve import (ClouClient, ClouServer, DaemonBusy,
                         DaemonUnreachable, DeadlineExceeded, protocol)


class _EchoSession:
    """An instant stub session: every request succeeds untouched."""

    def __init__(self):
        self.stats = SessionStats()
        self.calls = []            # the kwargs each run() received

    def run(self, requests, **kwargs):
        self.calls.append(kwargs)
        return [AnalysisResult(request=request) for request in requests]


class _GatedSession(_EchoSession):
    """First run blocks until released — fills the queue on demand."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.first = True

    def run(self, requests, **kwargs):
        if self.first:
            self.first = False
            self.gate.wait(timeout=10)
        return super().run(requests, **kwargs)


@pytest.fixture
def served(tmp_path):
    session = _EchoSession()
    server = ClouServer(session, socket_path=str(tmp_path / "clou.sock"))
    server.start()
    yield server
    server.shutdown()


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not reached in time")


def _raw(server_or_path):
    path = getattr(server_or_path, "socket_path", server_or_path)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(5.0)
    sock.connect(path)
    return sock


class _FakeDaemon:
    """A scripted peer: ``behavior(conn)`` runs once per accepted
    connection (in a thread), then the connection is closed."""

    def __init__(self, tmp_path, behavior, name="fake.sock"):
        self.path = str(tmp_path / name)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(self.path)
        self._listener.listen(8)
        self._behavior = behavior
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            try:
                self._behavior(conn)
            except OSError:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def close(self):
        try:
            self._listener.close()
        except OSError:
            pass


def _reply(conn, envelope):
    conn.sendall((json.dumps(envelope) + "\n").encode("utf-8"))


# ----------------------------------------------------------------------
# Server-side failure modes (broken clients against a live daemon)
# ----------------------------------------------------------------------

class TestServerFailureModes:
    def test_wrong_version_envelope_gets_structured_error(self, served):
        with _raw(served) as sock, sock.makefile("rb") as lines:
            sock.sendall(b'{"v": 99, "op": "ping", "id": 1}\n')
            reply = protocol.decode_line(lines.readline())
        assert not reply["ok"]
        assert "unsupported protocol" in reply["error"]
        assert reply["v"] == protocol.PROTOCOL_VERSION
        assert reply["code"] == "protocol"

    def test_v1_envelope_gets_unsupported_protocol(self, served):
        request = AnalysisRequest.analyze("int x;").to_dict()
        with _raw(served) as sock, sock.makefile("rb") as lines:
            for envelope in ({"v": 1, "op": "ping", "id": 1},
                             {"v": 1, "op": "analyze", "id": 2,
                              "priority": 0, "request": request}):
                sock.sendall(protocol.encode(envelope))
                reply = protocol.decode_line(lines.readline())
                assert not reply["ok"]
                assert "unsupported protocol v1" in reply["error"]
                assert reply["code"] == "protocol"
        assert served.session.calls == []      # nothing was analyzed

    def test_garbage_bytes_get_structured_error(self, served):
        with _raw(served) as sock, sock.makefile("rb") as lines:
            sock.sendall(b"\xff\xfe\x00 utter garbage\n")
            reply = protocol.decode_line(lines.readline())
            assert not reply["ok"]
            assert reply["code"] == "protocol"
            # The connection survives the bad line and keeps serving.
            sock.sendall(protocol.encode(
                protocol.make_request("ping", id=2)))
            pong = protocol.decode_line(lines.readline())
        assert pong["ok"] and pong["id"] == 2
        assert pong["v"] == protocol.PROTOCOL_VERSION

    def test_oversized_line_drops_the_connection(self, served):
        with _raw(served) as sock, sock.makefile("rb") as lines:
            sock.sendall(b"x" * (protocol.MAX_LINE_BYTES + 16) + b"\n")
            reply = protocol.decode_line(lines.readline())
            assert not reply["ok"]
            assert "exceeds" in reply["error"]
            assert reply["code"] == "oversized"
            assert lines.readline() == b""   # connection dropped
        # ... but the daemon itself survives to serve others.
        with ClouClient(socket_path=served.socket_path) as client:
            assert client.ping()["pid"]

    def test_midwrite_disconnect_leaves_daemon_serving(self, served):
        sock = _raw(served)
        sock.sendall(b'{"v": 2, "op": "ping", "id')   # torn mid-envelope
        sock.close()
        with ClouClient(socket_path=served.socket_path) as client:
            assert client.ping()["protocol"] == protocol.PROTOCOL_VERSION


# ----------------------------------------------------------------------
# Client-side failure modes (broken daemons against a real client)
# ----------------------------------------------------------------------

class TestClientFailureModes:
    def test_garbage_response_is_analysis_error(self, tmp_path):
        def behavior(conn):
            conn.makefile("rb").readline()
            conn.sendall(b"{ not json at all\n")

        fake = _FakeDaemon(tmp_path, behavior)
        try:
            with pytest.raises(AnalysisError, match="bad daemon response"):
                ClouClient(socket_path=fake.path).ping()
        finally:
            fake.close()

    def test_wrong_version_response_is_analysis_error(self, tmp_path):
        def behavior(conn):
            conn.makefile("rb").readline()
            _reply(conn, {"v": 99, "id": 1, "ok": True, "result": None,
                          "error": None, "busy": False})

        fake = _FakeDaemon(tmp_path, behavior)
        try:
            with pytest.raises(AnalysisError, match="bad daemon response"):
                ClouClient(socket_path=fake.path).ping()
        finally:
            fake.close()

    def test_v1_only_daemon_is_analysis_error_after_one_send(self,
                                                             tmp_path):
        # A v1-only daemon rejects our envelope with a v1 error line,
        # which this client cannot parse either: no downgrade, no
        # re-send.
        received = []

        def behavior(conn):
            with conn.makefile("rb") as lines:
                for line in lines:
                    received.append(json.loads(line))
                    _reply(conn, {
                        "v": 1, "id": None, "ok": False, "result": None,
                        "busy": False,
                        "error": "unsupported protocol v2 (this build "
                                 "speaks v1)"})

        fake = _FakeDaemon(tmp_path, behavior)
        try:
            client = ClouClient(socket_path=fake.path, retries=2)
            with pytest.raises(AnalysisError, match="bad daemon response"):
                client.analyze(AnalysisRequest.analyze("int x;"))
        finally:
            fake.close()
        assert len(received) == 1
        assert received[0]["v"] == protocol.PROTOCOL_VERSION

    def test_close_without_reply_is_unreachable(self, tmp_path):
        def behavior(conn):
            conn.makefile("rb").readline()   # read, say nothing, hang up

        fake = _FakeDaemon(tmp_path, behavior)
        try:
            with pytest.raises(DaemonUnreachable):
                ClouClient(socket_path=fake.path).ping()
        finally:
            fake.close()

    def test_taxonomy_is_exhaustive(self):
        # Every client-raised class maps to exactly one CLI disposition.
        assert issubclass(DeadlineExceeded, AnalysisError)
        assert issubclass(DaemonUnreachable, ConnectionError)
        assert not issubclass(DaemonBusy, AnalysisError)
        assert not issubclass(DaemonBusy, ConnectionError)

    def test_ping_reconnects_once_over_a_stale_connection(self, served):
        client = ClouClient(socket_path=served.socket_path)
        with client:
            assert client.ping()["pid"]
            # The daemon tears our connection down behind our back
            # (restart, idle reap, ...): read-only ops replay safely.
            client._sock.close()
            assert client.ping()["pid"]


# ----------------------------------------------------------------------
# Retry, backoff, failover
# ----------------------------------------------------------------------

class TestRetryAndFailover:
    def test_backoff_schedule_is_deterministic(self):
        a = ClouClient(socket_path="x", seed=5)
        b = ClouClient(socket_path="x", seed=5)
        assert [a._pause(i) for i in range(4)] == \
            [b._pause(i) for i in range(4)]
        other = ClouClient(socket_path="x", seed=6)
        assert [a._pause(i) for i in range(4)] != \
            [other._pause(i) for i in range(4)]

    def test_backoff_is_bounded_exponential(self):
        client = ClouClient(socket_path="x", backoff=0.05, seed=0)
        for attempt in range(5):
            base = 0.05 * (2 ** attempt)
            assert base * 0.5 <= client._pause(attempt) < base * 1.5

    def test_failover_to_second_socket(self, tmp_path, served):
        dead = str(tmp_path / "dead.sock")
        client = ClouClient(sockets=(dead, served.socket_path))
        with client:
            assert client.ping()["pid"]
        assert client.socket_path == served.socket_path

    def test_all_addresses_dead_is_unreachable(self, tmp_path):
        client = ClouClient(sockets=(str(tmp_path / "a.sock"),
                                     str(tmp_path / "b.sock")),
                            retries=0)
        with pytest.raises(DaemonUnreachable, match="no daemon at any"):
            client.ping()

    def test_env_sockets_supply_the_failover_list(self, monkeypatch,
                                                  tmp_path, served):
        import os

        from repro.sched.env import SOCKETS_ENV

        monkeypatch.setenv(SOCKETS_ENV, os.pathsep.join(
            [str(tmp_path / "dead.sock"), served.socket_path]))
        with ClouClient() as client:
            assert client.ping()["pid"]

    def test_analyze_retries_through_failover(self, tmp_path, served):
        # First address never answers; the retry loop rotates to the
        # live daemon and completes.
        dead = str(tmp_path / "dead.sock")
        client = ClouClient(sockets=(dead, served.socket_path),
                            retries=2, backoff=0.01)
        result = client.analyze(AnalysisRequest.analyze("int x;"))
        assert result.ok
        client.close()


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------

class TestDeadlines:
    def test_expired_deadline_raises_locally(self, served):
        client = ClouClient(socket_path=served.socket_path,
                            deadline=time.time() - 1.0, retries=0)
        with pytest.raises(DeadlineExceeded):
            client.analyze(AnalysisRequest.analyze("int x;"))

    def test_server_rejects_expired_envelope(self, served):
        request = AnalysisRequest.analyze("int x;").to_dict()
        with _raw(served) as sock, sock.makefile("rb") as lines:
            sock.sendall(protocol.encode(protocol.make_request(
                "analyze", id=1, request=request,
                deadline=time.time() - 5.0)))
            reply = protocol.decode_line(lines.readline())
        assert not reply["ok"]
        assert reply["code"] == "deadline_exceeded"
        assert served.status()["deadline_dropped"] == 1

    def test_deadline_expiring_in_queue_is_dropped(self, tmp_path):
        session = _GatedSession()
        server = ClouServer(session,
                            socket_path=str(tmp_path / "clou.sock"))
        server.start()
        request = AnalysisRequest.analyze("int x;").to_dict()
        try:
            with _raw(server) as sock, sock.makefile("rb") as lines:
                sock.sendall(protocol.encode(protocol.make_request(
                    "analyze", id=0, request=request)))
                _wait_for(lambda: server.status()["running"] == 1)
                sock.sendall(protocol.encode(protocol.make_request(
                    "analyze", id=1, request=request,
                    deadline=time.time() + 0.2)))
                _wait_for(lambda: server.status()["queued"] == 1)
                time.sleep(0.3)              # let the deadline lapse
                session.gate.set()
                first = protocol.decode_line(lines.readline())
                second = protocol.decode_line(lines.readline())
        finally:
            server.shutdown()
        assert first["id"] == 0 and first["ok"]
        assert second["id"] == 1 and not second["ok"]
        assert second["code"] == "deadline_exceeded"

    def test_deadline_threads_into_session_run(self, served):
        deadline = time.time() + 30.0
        with ClouClient(socket_path=served.socket_path) as client:
            client.analyze(AnalysisRequest.analyze("int x;"),
                           deadline=deadline)
            client.analyze(AnalysisRequest.analyze("int y;"))
        first, second = served.session.calls
        assert first["deadline"] == pytest.approx(deadline)
        assert second == {"deadline": None}  # one call shape, no fork


# ----------------------------------------------------------------------
# Per-tenant admission control
# ----------------------------------------------------------------------

class TestTenantAdmission:
    def _budgeted(self, tmp_path, budget=1.0):
        clock = [0.0]
        server = ClouServer(_EchoSession(),
                            socket_path=str(tmp_path / "clou.sock"),
                            tenant_budget=budget,
                            clock=lambda: clock[0])
        server.start()
        return server, clock

    def test_budget_rejects_the_burst_overflow(self, tmp_path):
        server, clock = self._budgeted(tmp_path)
        try:
            client = ClouClient(socket_path=server.socket_path,
                                tenant="ci", retries=0)
            with client:
                assert client.analyze(
                    AnalysisRequest.analyze("int x;")).ok
                with pytest.raises(DaemonBusy, match="tenant 'ci'"):
                    client.analyze(AnalysisRequest.analyze("int x;"))
                clock[0] += 1.0      # one second refills one token
                assert client.analyze(
                    AnalysisRequest.analyze("int x;")).ok
            status = server.status()
        finally:
            server.shutdown()
        assert status["tenants"]["ci"] == {"admitted": 2, "rejected": 1}
        assert status["tenant_budget"] == 1.0

    def test_tenants_have_independent_buckets(self, tmp_path):
        server, _ = self._budgeted(tmp_path)
        try:
            for tenant in ("ci", "dev", None):
                client = ClouClient(socket_path=server.socket_path,
                                    tenant=tenant, retries=0)
                with client:
                    assert client.analyze(
                        AnalysisRequest.analyze("int x;")).ok
            tenants = server.status()["tenants"]
        finally:
            server.shutdown()
        assert tenants["ci"]["admitted"] == 1
        assert tenants["dev"]["admitted"] == 1
        assert tenants["default"]["admitted"] == 1   # anonymous bucket

    def test_no_budget_admits_everyone(self, served):
        with ClouClient(socket_path=served.socket_path,
                        tenant="ci", retries=0) as client:
            for _ in range(5):
                assert client.analyze(
                    AnalysisRequest.analyze("int x;")).ok
        assert served.status()["tenants"]["ci"]["admitted"] == 5


# ----------------------------------------------------------------------
# Shutdown semantics
# ----------------------------------------------------------------------

class TestShutdownDrop:
    def test_connection_drop_after_shutdown_is_success(self, tmp_path):
        def behavior(conn):
            conn.makefile("rb").readline()   # swallow the envelope, die

        fake = _FakeDaemon(tmp_path, behavior)
        try:
            ClouClient(socket_path=fake.path).shutdown()   # must not raise
        finally:
            fake.close()

    def test_shutdown_of_absent_daemon_still_raises(self, tmp_path):
        client = ClouClient(socket_path=str(tmp_path / "nothing.sock"))
        with pytest.raises(DaemonUnreachable):
            client.shutdown()

    def test_cli_shutdown_tolerates_the_drop(self, tmp_path, capsys):
        def behavior(conn):
            conn.makefile("rb").readline()

        fake = _FakeDaemon(tmp_path, behavior)
        try:
            import repro.cli as cli

            code = cli.main(["client", "shutdown", "--socket", fake.path])
        finally:
            fake.close()
        assert code == 0
        assert "shut down" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Injected transport faults (in-process chaos-lite; the full sweep
# lives in benchmarks/chaos_sweep.py)
# ----------------------------------------------------------------------

class TestServeFaults:
    def test_write_drop_recovers_on_retry(self, served):
        from repro.sched.faults import activate

        client = ClouClient(socket_path=served.socket_path, timeout=0.5)
        with activate("drop@serve.write#1"), client:
            # First reply is dropped; ping's one-shot reconnect gets the
            # second, un-faulted one.
            assert client.ping()["pid"]

    def test_read_drop_leaves_connection_usable(self, served):
        from repro.sched.faults import activate

        with activate("drop@serve.read#1"):
            with _raw(served) as sock:
                sock.settimeout(0.3)
                sock.sendall(protocol.encode(
                    protocol.make_request("ping", id=1)))
                with pytest.raises(socket.timeout):
                    sock.recv(4096)          # swallowed, no reply
                sock.settimeout(5.0)
                sock.sendall(protocol.encode(
                    protocol.make_request("ping", id=2)))
                with sock.makefile("rb") as lines:
                    reply = protocol.decode_line(lines.readline())
        assert reply["ok"] and reply["id"] == 2

    def test_garbled_write_is_a_parse_error_not_a_hang(self, served):
        from repro.sched.faults import activate

        client = ClouClient(socket_path=served.socket_path,
                            timeout=2.0, retries=0)
        with activate("garble@serve.write#1"), client:
            with pytest.raises(AnalysisError, match="bad daemon response"):
                client.analyze(AnalysisRequest.analyze("int x;"))
        # The daemon survives its own garbled write.
        with ClouClient(socket_path=served.socket_path) as fresh:
            assert fresh.ping()["pid"]

    def test_dispatch_crash_tears_down_only_that_connection(self, served):
        from repro.sched.faults import activate

        client = ClouClient(socket_path=served.socket_path,
                            timeout=1.0, retries=1, backoff=0.01)
        with activate("crash@serve.dispatch#1"), client:
            # Attempt 1: the dispatcher tears our connection down; the
            # retry reconnects and attempt 2 is dispatched cleanly.
            result = client.analyze(AnalysisRequest.analyze("int x;"))
        assert result.ok
        assert served.status()["fault_dropped"] == 1


# ----------------------------------------------------------------------
# End-to-end: output stays byte-identical through a failover
# ----------------------------------------------------------------------

VICTIM = """
#include <stdint.h>

uint8_t A[16];
uint8_t B[256 * 512];
uint64_t size_A = 16;
uint64_t tmp;

void victim(uint64_t y) {
    if (y < size_A) {
        tmp &= B[A[y] * 512];
    }
}
"""


class TestFailoverByteIdentity:
    def test_json_identical_through_dead_first_socket(self, tmp_path,
                                                      capsys, monkeypatch):
        import repro.cli as cli
        from repro.sched import ClouSession
        from repro.sched.env import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
        path = tmp_path / "victim.c"
        path.write_text(VICTIM)
        code_local = cli.main(["analyze", str(path), "--json"])
        local = capsys.readouterr().out
        server = ClouServer(
            ClouSession(jobs=1, cache=True,
                        cache_dir=str(tmp_path / "cache")),
            socket_path=str(tmp_path / "live.sock"))
        server.start()
        try:
            code_remote = cli.main(
                ["analyze", str(path), "--json",
                 "--socket", str(tmp_path / "dead.sock"),
                 "--socket", server.socket_path,
                 "--deadline", "60", "--tenant", "ci"])
            remote = capsys.readouterr().out
        finally:
            server.shutdown()
        assert remote == local
        assert code_remote == code_local == 1    # Spectre v1 leaks
