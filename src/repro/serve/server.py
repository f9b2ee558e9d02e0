"""The ``clou serve`` daemon: a socket front-end on a resident session.

One :class:`ClouServer` owns one long-lived
:class:`~repro.sched.ClouSession` — the warm asset.  Keeping the
session resident means the per-process compile and S-AEG memo caches
stay hot and the on-disk result cache needs no re-probing setup, so a
re-analysis after a one-function edit re-runs only the changed
function (function-granular cache keys, see
:mod:`repro.sched.digest`) at warm-interpreter speed.

Threading model (deliberately boring):

- an **accept loop** thread takes connections;
- a **reader** thread per connection parses NDJSON request envelopes
  (:mod:`repro.serve.protocol`) and answers ``status``/``ping``
  inline;
- a single **dispatcher** thread drains the priority queue and runs
  ``analyze`` ops one batch at a time — :class:`ClouSession` is not
  thread-safe, and serializing here keeps its stats, cache, and worker
  pool single-writer.  Parallelism lives *inside* the session
  (``--jobs`` worker processes), not across protocol ops.

Queued ``analyze`` ops are ordered by ``(priority, arrival)`` — lower
priority value first, FIFO within a priority.  When ``max_inflight``
is set and the queue (queued + running) is full, new ``analyze`` ops
are rejected immediately with ``busy: true`` instead of queuing
unboundedly; the client maps that to the CLI's degraded-coverage exit
code (the PR 5 contract: overload is incompleteness, not failure).

Fleet robustness:

- **deadlines** — an envelope may carry a wall-clock ``deadline``;
  a queued op whose deadline passes before dispatch is dropped with a
  structured ``deadline_exceeded`` response (never silently run), and
  one that dispatches in time hands its *remaining* budget to
  :meth:`ClouSession.run`, which clamps the engines' cooperative
  search budget so in-flight work degrades toward *unknown* instead of
  overrunning.
- **per-tenant admission control** — with ``tenant_budget`` set, each
  distinct ``tenant`` string gets a token bucket of N ``analyze``
  admissions per second (burst = max(1, N)); an empty bucket rejects
  with ``busy: true`` + ``code: "tenant_budget"`` so one chatty CI
  tenant cannot starve interactive users.  Per-tenant counters are
  reported by ``status``.
- **bounded reads** — request lines are read through
  :func:`repro.serve.protocol.read_wire_line`; an oversized line gets
  a structured error and the connection is dropped (a mid-line stream
  cannot be resynchronized).
- **fault sites** — the transport declares ``serve.accept`` /
  ``serve.read`` / ``serve.write`` / ``serve.dispatch`` injection
  points (:mod:`repro.sched.faults`) so the chaos sweep can exercise
  dropped, stalled, garbled, and torn-connection behavior
  deterministically.  All serve-site actions are scoped to one
  connection or message; the daemon process always survives.

Per request, only what the edit moved is paid for:

- **encode once** — an ``analyze`` reply is written by
  :func:`encode_result` from :meth:`AnalysisResult.to_json`, which
  splices in the encoded function entries the session keeps on its
  resident reports; the line is byte-identical to
  ``protocol.encode(protocol.make_response(id, result=result.to_dict()))``.
- **memos out of the collector's reach** — after each reply the
  dispatcher calls :func:`settle_heap`: a collection that walks only
  what this request allocated (earlier survivors are frozen), then
  ``gc.freeze()`` of the survivors — the compile and S-AEG memos and
  the resident reports — so later collections never walk them again.
- ``status`` reports p50/p99 queue wait and service time over the last
  :data:`LATENCY_WINDOW` ``analyze`` ops (timings never enter a
  report).

``shutdown`` (op or :meth:`shutdown` call, e.g. from a SIGTERM
handler) stops accepting, fails queued work with a structured error,
and joins the threads — a clean exit, never a mid-write kill.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import os
import socket
import threading
import time
from collections import deque

from repro.clou.serialize import compact_json, json_object
from repro.sched import AnalysisRequest, AnalysisResult, ClouSession
from repro.sched.faults import fault_point
from repro.serve import protocol
from repro.serve.protocol import OversizedLine, ProtocolError

__all__ = ["ClouServer", "encode_result", "settle_heap"]

#: How long an injected ``stall`` fault delays one transport step.
#: Class-level so chaos tests can tune it against their deadlines.
STALL_SECONDS = 0.2

#: ``analyze`` ops whose queue wait and service time ``status`` ranks.
LATENCY_WINDOW = 512


def encode_result(id: object, result: AnalysisResult) -> bytes:
    """The response line of an ``analyze`` op: byte for byte
    ``protocol.encode(protocol.make_response(id, result=result.to_dict()))``,
    with the result from :meth:`AnalysisResult.to_json`."""
    result_json = result.to_json()
    return json_object(
        (key, result_json if key == "result" else compact_json(value))
        for key, value in protocol.make_response(id).items()) + b"\n"


def settle_heap() -> None:
    """Run after each reply.  Collect what the request left unreachable
    (a full collection walks only objects not yet frozen, that is what
    the request allocated), then freeze the survivors: the long-lived
    memos and resident reports are never walked by a collection
    again."""
    gc.collect()
    gc.freeze()


def _percentiles(samples) -> dict[str, float | None]:
    """Nearest-rank p50 and p99 in milliseconds."""
    ranked = sorted(samples)
    if not ranked:
        return {"p50_ms": None, "p99_ms": None}
    return {f"p{q}_ms": round(1000 * ranked[
        min(len(ranked) - 1, -(-q * len(ranked) // 100) - 1)], 3)
        for q in (50, 99)}


def _garble(data: bytes) -> bytes:
    """Deterministically corrupt a wire line, preserving the trailing
    newline so the peer still finds a line boundary (and fails to parse
    what is inside it, instead of blocking forever)."""
    if data.endswith(b"\n"):
        return bytes(b ^ 0xA5 for b in data[:-1]) + b"\n"
    return bytes(b ^ 0xA5 for b in data)


def _hang_up(sock: socket.socket) -> None:
    """Shut a socket down, then close it; idempotent, best-effort."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class _TokenBucket:
    """A per-tenant admission budget: ``rate`` tokens/second, capacity
    ``burst``, full at birth.  The clock is injectable so tests are
    deterministic."""

    def __init__(self, rate: float, burst: float, clock=time.monotonic):
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._last = clock()

    def take(self) -> bool:
        now = self._clock()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._last) * self.rate)
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class _Writer:
    """A socket with a send lock: reader and dispatcher threads both
    reply on the same connection.  The ``serve.write`` fault site lives
    here — every outbound envelope passes through one choke point."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._lock = threading.Lock()

    def send(self, envelope: dict) -> None:
        self.write(protocol.encode(envelope))

    def write(self, data: bytes) -> None:
        """Send one encoded line."""
        action = fault_point("serve.write")
        if action == "drop":
            return
        if action == "crash":
            self.close()
            return
        if action == "stall":
            time.sleep(STALL_SECONDS)
        elif action == "garble":
            data = _garble(data)
        with self._lock:
            try:
                self._sock.sendall(data)
            except OSError:
                pass  # client went away; its loss, not the server's

    def close(self) -> None:
        """Tear the connection down abruptly (the ``crash`` fault and
        dispatcher-side cleanup).  Idempotent, best-effort."""
        _hang_up(self._sock)


class ClouServer:
    """A persistent analysis daemon over a UNIX socket or TCP port.

    Parameters
    ----------
    session:
        The resident :class:`ClouSession` (injectable for tests).
        ``None`` builds a default session.
    socket_path / port / host:
        Exactly one transport: a UNIX socket path, or a TCP port on
        ``host`` (``port=0`` binds an ephemeral port; read it back
        from :attr:`port` after :meth:`start`).
    max_inflight:
        Load-shed budget: the maximum number of ``analyze`` ops queued
        or running at once.  ``None`` = unbounded.
    tenant_budget:
        Per-tenant admission rate in ``analyze`` ops per second
        (burst = max(1, rate)).  ``None`` = unlimited.  Envelopes
        without a ``tenant`` share the ``"default"`` bucket.
    clock:
        Monotonic clock for the token buckets (injectable for tests).
    """

    def __init__(self, session: ClouSession | None = None, *,
                 socket_path: str | None = None, port: int | None = None,
                 host: str = "127.0.0.1", max_inflight: int | None = None,
                 tenant_budget: float | None = None, clock=time.monotonic):
        if (socket_path is None) == (port is None):
            raise ValueError(
                "exactly one of socket_path/port is required")
        self.session = session if session is not None else ClouSession()
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.tenant_budget = tenant_budget
        self._clock = clock
        self._listener: socket.socket | None = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        # (priority, seq, writer, id, payload, deadline, queued_at)
        self._queue: list = []
        self._seq = itertools.count()
        self._running = 0                 # analyze ops inside session.run
        self._served = 0
        self._rejected = 0
        self._deadline_dropped = 0        # expired before dispatch
        self._fault_dropped = 0           # discarded by injected faults
        self._buckets: dict[str, _TokenBucket] = {}
        self._tenants: dict[str, dict[str, int]] = {}
        # (queue wait, service time) in seconds of recent analyze ops
        self._latency: deque = deque(maxlen=LATENCY_WINDOW)
        self._started = time.monotonic()
        self._threads: list[threading.Thread] = []

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind and spin up the accept + dispatcher threads."""
        self._listener = self._bind()
        for target, name in ((self._accept_loop, "clou-serve-accept"),
                             (self._dispatch_loop, "clou-serve-dispatch")):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)

    def serve_forever(self) -> None:
        """:meth:`start` then block until :meth:`shutdown`."""
        if self._listener is None:
            self.start()
        self._stop.wait()
        self._join()

    def shutdown(self) -> None:
        """Stop accepting, fail queued work, release the socket.
        Idempotent and callable from any thread (including a signal
        handler)."""
        if self._stop.is_set():
            return
        self._stop.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            # close() alone does not wake a thread blocked in accept()
            # on Linux; shutdown() first makes that accept() fail at once.
            _hang_up(listener)
        with self._work:
            pending, self._queue = self._queue, []
            self._work.notify_all()
        for _, _, writer, id, *_ in pending:
            writer.send(protocol.error_response(
                id, "server shutting down", code="shutdown"))
        if self.socket_path and os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        gc.unfreeze()  # hand what settle_heap froze back to the collector

    def _join(self) -> None:
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=5.0)

    def _bind(self) -> socket.socket:
        if self.socket_path is not None:
            if os.path.exists(self.socket_path):
                # Reclaim a stale socket (dead daemon); refuse a live one.
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    probe.connect(self.socket_path)
                except OSError:
                    os.unlink(self.socket_path)
                else:
                    probe.close()
                    raise OSError(
                        f"another daemon is live on {self.socket_path}")
                finally:
                    probe.close()
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(self.socket_path)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            self.port = listener.getsockname()[1]
        listener.listen(16)
        return listener

    @property
    def address(self) -> str:
        return (self.socket_path if self.socket_path is not None
                else f"{self.host}:{self.port}")

    # -- threads -----------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stop.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # listener closed by shutdown()
            action = fault_point("serve.accept")
            if action in ("drop", "crash"):
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            if action == "stall":
                time.sleep(STALL_SECONDS)
            thread = threading.Thread(
                target=self._reader_loop, args=(conn,),
                name="clou-serve-conn", daemon=True)
            thread.start()

    def _reader_loop(self, conn: socket.socket) -> None:
        writer = _Writer(conn)
        try:
            with conn, conn.makefile("rb") as lines:
                while True:
                    try:
                        line = protocol.read_wire_line(lines)
                    except OversizedLine as error:
                        # The stream has no recoverable line boundary
                        # left: structured error, then hang up.
                        writer.send(protocol.error_response(
                            None, str(error), code="oversized"))
                        return
                    if line is None:
                        return  # EOF
                    if not line.strip():
                        continue
                    action = fault_point("serve.read")
                    if action == "drop":
                        continue
                    if action == "crash":
                        return
                    if action == "stall":
                        time.sleep(STALL_SECONDS)
                    elif action == "garble":
                        line = _garble(line)
                    if not self._handle(line, writer):
                        return
        except OSError:
            pass

    def _handle(self, line: bytes, writer: _Writer) -> bool:
        """One envelope; returns False to drop the connection."""
        try:
            req = protocol.parse_request(protocol.decode_line(line))
        except ProtocolError as error:
            writer.send(protocol.error_response(
                None, str(error), code="protocol"))
            return True
        if req.op == "ping":
            writer.send(protocol.make_response(req.id, result=self._pong()))
        elif req.op == "status":
            writer.send(protocol.make_response(req.id, result=self.status()))
        elif req.op == "shutdown":
            writer.send(protocol.make_response(req.id, result=None))
            self.shutdown()
            return False
        elif req.op == "analyze":
            self._enqueue(writer, req)
        return True

    def _tenant_admits(self, tenant: str) -> bool:
        """One token-bucket decision (caller holds ``self._work``)."""
        if self.tenant_budget is None:
            return True
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = _TokenBucket(self.tenant_budget,
                                  max(1.0, self.tenant_budget),
                                  clock=self._clock)
            self._buckets[tenant] = bucket
        return bucket.take()

    def _count_tenant(self, tenant: str, key: str) -> None:
        entry = self._tenants.setdefault(
            tenant, {"admitted": 0, "rejected": 0})
        entry[key] += 1

    def _enqueue(self, writer: _Writer, req: protocol.ParsedRequest) -> None:
        tenant = req.tenant or "default"
        with self._work:
            if self._stop.is_set():
                writer.send(protocol.error_response(
                    req.id, "server shutting down", code="shutdown"))
                return
            if req.deadline is not None and time.time() >= req.deadline:
                # Doomed on arrival: reject instead of queueing work
                # whose answer nobody is waiting for.
                self._deadline_dropped += 1
                writer.send(protocol.error_response(
                    req.id, "deadline exceeded before the request was "
                    "queued", code="deadline_exceeded"))
                return
            if not self._tenant_admits(tenant):
                # busy=true: clients degrade exactly as on a
                # max-inflight rejection (incomplete, not failed).
                self._rejected += 1
                self._count_tenant(tenant, "rejected")
                writer.send(protocol.error_response(
                    req.id,
                    f"tenant {tenant!r} admission budget exhausted "
                    f"(--tenant-budget {self.tenant_budget:g}/s)",
                    busy=True, code="tenant_budget"))
                return
            inflight = len(self._queue) + self._running
            if self.max_inflight is not None \
                    and inflight >= self.max_inflight:
                self._rejected += 1
                self._count_tenant(tenant, "rejected")
                writer.send(protocol.error_response(
                    req.id,
                    f"server busy: {inflight} request(s) inflight "
                    f"(--max-inflight {self.max_inflight})",
                    busy=True, code="busy"))
                return
            self._count_tenant(tenant, "admitted")
            heapq.heappush(self._queue, (req.priority, next(self._seq),
                                         writer, req.id, req.payload,
                                         req.deadline, time.monotonic()))
            self._work.notify()

    def _dispatch_loop(self) -> None:
        while True:
            with self._work:
                while not self._queue and not self._stop.is_set():
                    self._work.wait()
                if self._stop.is_set():
                    return
                (_, _, writer, id, payload, deadline,
                 queued_at) = heapq.heappop(self._queue)
                self._running += 1
            started = time.monotonic()
            action = fault_point("serve.dispatch")
            if action in ("drop", "crash"):
                if action == "crash":
                    writer.close()
                with self._work:
                    self._running -= 1
                    self._fault_dropped += 1
                continue
            if action == "stall":
                time.sleep(STALL_SECONDS)
            if deadline is not None and time.time() >= deadline:
                with self._work:
                    self._running -= 1
                    self._deadline_dropped += 1
                writer.send(protocol.error_response(
                    id, "deadline exceeded while queued",
                    code="deadline_exceeded"))
                continue
            line = self._analyze(id, payload, deadline)
            # Count before replying: a client that sends `status` right
            # after its analyze reply must see itself served.
            with self._work:
                self._running -= 1
                self._served += 1
                self._latency.append((started - queued_at,
                                      time.monotonic() - started))
            writer.write(line)
            settle_heap()

    def _analyze(self, id: object, payload: dict,
                 deadline: float | None) -> bytes:
        # Total: a bad payload or a session bug must never kill the
        # dispatcher thread, only this one request.
        try:
            request = AnalysisRequest.from_dict(payload)
            [result] = self.session.run([request], deadline=deadline)
            return encode_result(id, result)
        except Exception as error:
            return protocol.encode(protocol.error_response(id, str(error)))

    # -- introspection -----------------------------------------------------

    def _pong(self) -> dict:
        return {"protocol": protocol.PROTOCOL_VERSION, "pid": os.getpid()}

    def status(self) -> dict:
        """The ``status`` op's result payload (also handy in-process)."""
        with self._lock:
            queued, running = len(self._queue), self._running
            tenants = {name: dict(counts)
                       for name, counts in sorted(self._tenants.items())}
            latency = list(self._latency)
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "pid": os.getpid(),
            "address": self.address,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "queued": queued,
            "running": running,
            "max_inflight": self.max_inflight,
            "served": self._served,
            "busy_rejected": self._rejected,
            "deadline_dropped": self._deadline_dropped,
            "fault_dropped": self._fault_dropped,
            "tenant_budget": self.tenant_budget,
            "tenants": tenants,
            "latency": {
                "window": len(latency),
                "queue_wait": _percentiles(wait for wait, _ in latency),
                "service": _percentiles(run for _, run in latency),
            },
            "stats": self.session.stats.to_dict(),
        }
