"""Client side of the ``clou serve`` protocol.

:class:`ClouClient` holds one connection and speaks the NDJSON
envelopes from :mod:`repro.serve.protocol` sequentially (send one,
read the reply).  The payloads it sends and receives are the library
wire forms — :meth:`AnalysisRequest.to_dict` out,
:meth:`AnalysisResult.from_dict` back — so a daemon round-trip yields
the same objects a local :meth:`ClouSession.run` would have.

Failure taxonomy, because the CLI maps each differently:

- :class:`DaemonUnreachable` — no daemon at any configured address
  (connection refused, missing socket, no address configured).  The
  CLI falls back to an in-process session: the daemon is an
  accelerator, not a dependency.
- :class:`DaemonBusy` — the daemon load-shed the request
  (``--max-inflight`` full or the tenant's admission budget empty).
  Maps to the degraded-coverage exit code, not a crash.
- :class:`DeadlineExceeded` — the caller's wall-clock deadline passed
  before a result arrived (locally, or reported by the daemon for an
  envelope that expired in its queue).  A subclass of
  :class:`AnalysisError`, so code that only knows the original
  taxonomy still handles it; the CLI maps it to the degraded exit
  code.
- :class:`AnalysisError` — the daemon processed the request and it
  failed (parse error, unknown engine, ...): same exception the local
  path would raise.  A reply the client cannot parse — garbage, or an
  envelope at another protocol version — is an ``AnalysisError`` too
  (``bad daemon response``), raised without a re-send.

Fleet behavior (all deterministic under a pinned ``seed``):

- **failover** — the client holds an ordered UNIX-socket address list
  (repeated ``--socket`` flags or ``$REPRO_SOCKETS``); a connection
  failure rotates to the next address before the next attempt.
- **retry/backoff** — ``analyze`` (a pure, idempotent computation)
  retries :class:`DaemonBusy` / :class:`DaemonUnreachable` up to
  ``retries`` extra attempts with seeded-jitter exponential backoff,
  never sleeping past the caller's deadline.
- **deadlines** — a wall-clock deadline is stamped on each envelope
  *and* bounds the local socket timeouts, so a stalled daemon surfaces
  as :class:`DeadlineExceeded` on time.
- ``ping``/``status`` transparently reconnect once when a previously
  healthy connection turns out stale (daemon restarted); they are
  read-only, so the replay is safe.
"""

from __future__ import annotations

import socket
import time
import zlib

from repro.errors import AnalysisError
from repro.sched import AnalysisRequest, AnalysisResult
from repro.sched.env import env_socket, env_sockets, env_tenant
from repro.serve import protocol
from repro.serve.protocol import ProtocolError

__all__ = ["ClouClient", "DaemonBusy", "DaemonUnreachable",
           "DeadlineExceeded"]


class DaemonUnreachable(ConnectionError):
    """No daemon listening at any configured address."""


class DaemonBusy(RuntimeError):
    """The daemon rejected the request under its admission budgets
    (``--max-inflight`` or ``--tenant-budget``)."""


class DeadlineExceeded(AnalysisError):
    """The wall-clock deadline passed before the result arrived."""


class ClouClient:
    """One connection to a ``clou serve`` daemon.

    Address resolution: an explicit ``sockets`` list wins, then an
    explicit ``socket_path`` or ``port``; with none of those,
    ``$REPRO_SOCKETS`` supplies a failover list and ``$REPRO_SOCKET``
    a single path.  No address at all raises
    :class:`DaemonUnreachable` on first use, so callers can treat
    "not configured" and "not running" uniformly.

    ``deadline`` is a wall-clock Unix timestamp applied to every op
    (per-call ``analyze`` deadlines override it); ``tenant`` names the
    admission bucket (default ``$REPRO_TENANT``); ``retries`` /
    ``backoff`` / ``seed`` shape the ``analyze`` retry loop.
    """

    def __init__(self, socket_path: str | None = None,
                 port: int | None = None, host: str = "127.0.0.1",
                 timeout: float | None = 60.0, *,
                 sockets: tuple[str, ...] | list[str] | None = None,
                 tenant: str | None = None,
                 deadline: float | None = None,
                 retries: int = 2, backoff: float = 0.05, seed: int = 0):
        paths: tuple[str, ...]
        if sockets:
            paths = tuple(path for path in sockets if path)
        elif socket_path is not None:
            paths = (socket_path,)
        elif port is None:
            paths = env_sockets()
            if not paths:
                single = env_socket()
                paths = (single,) if single else ()
        else:
            paths = ()
        self._paths = paths
        self.socket_path = paths[0] if paths else None
        self.port = port
        self.host = host
        self.timeout = timeout
        self.tenant = tenant if tenant is not None else env_tenant()
        self.deadline = deadline
        self.retries = max(0, retries)
        self.backoff = backoff
        self.seed = seed
        self._cursor = 0                  # current failover index
        self._sock: socket.socket | None = None
        self._lines = None
        self._next_id = 0

    # -- connection --------------------------------------------------------

    def connect(self) -> "ClouClient":
        if self._sock is not None:
            return self
        if not self._paths and self.port is None:
            raise DaemonUnreachable(
                "no daemon address: pass --socket/--port or set "
                "$REPRO_SOCKET / $REPRO_SOCKETS")
        failures: list[str] = []
        if self.port is not None:
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout)
            except OSError as error:
                raise DaemonUnreachable(
                    f"no daemon at {self.address}: {error}") from error
        else:
            sock = None
            # Try every address once, starting from the last one that
            # worked (the failover cursor) and wrapping around.
            for offset in range(len(self._paths)):
                index = (self._cursor + offset) % len(self._paths)
                path = self._paths[index]
                candidate = socket.socket(socket.AF_UNIX,
                                          socket.SOCK_STREAM)
                candidate.settimeout(self.timeout)
                try:
                    candidate.connect(path)
                except OSError as error:
                    candidate.close()
                    failures.append(f"{path}: {error}")
                    continue
                sock = candidate
                self._cursor = index
                self.socket_path = path
                break
            if sock is None:
                raise DaemonUnreachable(
                    "no daemon at any address: " + "; ".join(failures))
        self._sock = sock
        self._lines = sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._lines.close()
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            self._lines = None

    def __enter__(self) -> "ClouClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def address(self) -> str:
        return (self.socket_path if self.socket_path is not None
                else f"{self.host}:{self.port}")

    # -- ops ---------------------------------------------------------------

    def analyze(self, request: AnalysisRequest, priority: int = 0,
                deadline: float | None = None) -> AnalysisResult:
        """Run one request on the daemon; returns the same
        :class:`AnalysisResult` a local session would (request-level
        errors inside the result, transport/overload errors raised).

        Any request kind rides the ``analyze`` op — repair and lint
        requests work too; the op names the dispatch path (queued,
        prioritized, budgeted), not the analysis kind.

        Retries :class:`DaemonBusy` / :class:`DaemonUnreachable` with
        seeded-jitter exponential backoff, rotating through the
        failover address list, never past the deadline — analysis is
        pure, so a replay cannot double-apply anything."""
        deadline = deadline if deadline is not None else self.deadline
        payload = request.to_dict()
        failure: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                response = self._call("analyze", priority=priority,
                                      request=payload, deadline=deadline)
                return AnalysisResult.from_dict(response["result"])
            except (DaemonBusy, DaemonUnreachable) as error:
                failure = error
                self.close()
                if self._paths:
                    self._cursor = (self._cursor + 1) % len(self._paths)
                if attempt >= self.retries:
                    break
                pause = self._pause(attempt)
                if deadline is not None:
                    remaining = deadline - time.time()
                    if remaining <= 0:
                        raise DeadlineExceeded(
                            f"deadline exceeded after {attempt + 1} "
                            f"attempt(s): {error}") from error
                    pause = min(pause, remaining)
                if pause > 0:
                    time.sleep(pause)
        raise failure

    def status(self) -> dict:
        return self._idempotent("status")["result"]

    def ping(self) -> dict:
        return self._idempotent("ping")["result"]

    def shutdown(self) -> None:
        """Ask the daemon to exit.  A connection that drops after the
        shutdown envelope went out *is* success — dying was the
        request — so only a daemon that was never reachable raises."""
        self.connect()
        try:
            self._call("shutdown")
        except DaemonUnreachable:
            pass
        finally:
            self.close()

    # -- plumbing ----------------------------------------------------------

    def _id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _pause(self, attempt: int) -> float:
        """Exponential backoff with deterministic jitter: the crc32 of
        ``(seed, attempt)`` maps to a factor in [0.5, 1.5), so a pinned
        seed reproduces the exact retry schedule (the same idiom as
        ``FaultRule.fires``)."""
        base = self.backoff * (2 ** attempt)
        digest = zlib.crc32(f"{self.seed}:retry:{attempt}".encode("ascii"))
        return base * (0.5 + digest / 0xFFFFFFFF)

    def _idempotent(self, op: str) -> dict:
        """Run a read-only op, reconnecting once if an existing
        connection turned out stale (daemon restarted behind us)."""
        stale_candidate = self._sock is not None
        try:
            return self._call(op, deadline=self.deadline)
        except DaemonUnreachable:
            if not stale_candidate:
                raise
            self.close()
            return self._call(op, deadline=self.deadline)

    def _call(self, op: str, *, priority: int = 0,
              request: dict | None = None,
              deadline: float | None = None) -> dict:
        self.connect()
        envelope = protocol.make_request(
            op, id=self._id(), priority=priority, request=request,
            deadline=deadline, tenant=self.tenant)
        response = self._roundtrip(envelope, deadline)
        if not response.get("ok"):
            message = response.get("error") or "daemon error"
            code = response.get("code")
            if code == "deadline_exceeded":
                raise DeadlineExceeded(message)
            if response.get("busy"):
                raise DaemonBusy(message)
            raise AnalysisError(message)
        return response

    def _roundtrip(self, envelope: dict, deadline: float | None) -> dict:
        """Send one envelope, read one bounded response line."""
        budget = self.timeout
        if deadline is not None:
            remaining = deadline - time.time()
            if remaining <= 0:
                self.close()
                raise DeadlineExceeded(
                    "deadline passed before the request was sent")
            budget = remaining if budget is None else min(budget, remaining)
        try:
            self._sock.settimeout(budget)
        except OSError:
            pass
        try:
            self._sock.sendall(protocol.encode(envelope))
            line = self._lines.readline(protocol.MAX_LINE_BYTES + 1)
        except socket.timeout as error:
            self.close()
            if deadline is not None:
                raise DeadlineExceeded(
                    f"daemon at {self.address} did not answer before the "
                    f"deadline") from error
            raise DaemonUnreachable(
                f"daemon at {self.address} timed out") from error
        except OSError as error:
            self.close()
            raise DaemonUnreachable(
                f"daemon at {self.address} dropped the connection: "
                f"{error}") from error
        if not line:
            self.close()
            raise DaemonUnreachable(
                f"daemon at {self.address} closed the connection")
        if len(line) > protocol.MAX_LINE_BYTES:
            self.close()
            raise AnalysisError(
                f"daemon response exceeds {protocol.MAX_LINE_BYTES} bytes")
        try:
            return protocol.parse_response(protocol.decode_line(line))
        except ProtocolError as error:
            self.close()
            raise AnalysisError(f"bad daemon response: {error}") from error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "connected" if self._sock is not None else "idle"
        return f"ClouClient({self.address!r}, {state})"
