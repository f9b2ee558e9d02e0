"""The ``clou serve`` wire protocol: newline-delimited JSON envelopes.

One connection carries a sequence of *requests* (client → server) and
*responses* (server → client), one JSON object per line, UTF-8, no
framing beyond the newline.  Both directions carry ``"v":``
:data:`PROTOCOL_VERSION`; a line at any other version — including the
retired v1 — is a structured ``unsupported protocol`` error, never a
silent misparse.

The envelope offers ops ``analyze``/``status``/``ping``/``shutdown``,
a client-chosen echoed ``id``, an integer ``priority``, an optional
wall-clock ``deadline`` (Unix epoch seconds — the server drops work
whose deadline has passed and threads the remaining budget into the
search), an optional ``tenant`` string (per-tenant admission
control), and a machine-readable ``code`` on error responses
(``"busy"``, ``"deadline_exceeded"``, ``"tenant_budget"``,
``"oversized"``, ``"protocol"``, ``"shutdown"``).

Request envelope::

    {"v": 2, "op": "analyze", "id": 7, "priority": 0,
     "deadline": 1700000123.5, "tenant": "ci",
     "request": {... AnalysisRequest.to_dict() ...}}

``op`` is one of :data:`OPS`.  ``id`` is chosen by the client and
echoed verbatim in the response so a pipelined client can match
replies; ``priority`` orders queued ``analyze`` ops (lower runs first,
ties FIFO).  ``status``/``ping``/``shutdown`` take no ``request``.
``deadline``/``tenant`` are optional on every op.

Response envelope::

    {"v": 2, "id": 7, "ok": true, "result": {...}, "error": null,
     "busy": false}

``result`` is an ``AnalysisResult.to_dict()`` for ``analyze``, a
status dict for ``status``/``ping``, and ``null`` for ``shutdown``.
``busy: true`` marks a load-shed rejection (``--max-inflight`` full or
the tenant's token bucket empty); the client maps it to the CLI's
degraded-coverage exit code rather than treating it as a failure.
Error responses carry ``code`` when the failure has a name.

Envelope lines are bounded by :data:`MAX_LINE_BYTES`
(:func:`read_wire_line`): an oversized line is a structured
:class:`OversizedLine` error, never an unbounded ``readline()`` buffer
— a trivially triggerable memory exhaustion otherwise.

The payloads inside the envelope are exactly the library wire forms
(:meth:`AnalysisRequest.to_dict` / :meth:`AnalysisResult.to_dict`):
the protocol adds routing, not another serialization.  The daemon
writes an ``analyze`` response from :meth:`AnalysisResult.to_json`,
which keeps the encoded entries of unchanged reports, but the line is
byte for byte ``encode(make_response(id, result=result.to_dict()))``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = [
    "MAX_LINE_BYTES",
    "OPS",
    "OversizedLine",
    "PROTOCOL_VERSION",
    "ParsedRequest",
    "ProtocolError",
    "decode_line",
    "encode",
    "error_response",
    "make_request",
    "make_response",
    "parse_request",
    "parse_response",
    "read_wire_line",
]

PROTOCOL_VERSION = 2

#: The operations a server understands.
OPS = ("analyze", "status", "ping", "shutdown")

#: Upper bound on one envelope line.  Large enough for any real
#: source-file payload (the whole corpus is under 1 MiB); small enough
#: that a hostile or broken peer cannot make ``readline()`` buffer
#: unbounded input.
MAX_LINE_BYTES = 8 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed or version-incompatible protocol line."""


class OversizedLine(ProtocolError):
    """A wire line exceeded :data:`MAX_LINE_BYTES`.  The stream cannot
    be resynchronized mid-line, so the connection must be dropped after
    the structured error is sent."""


def encode(envelope: dict) -> bytes:
    """One wire line: compact JSON + newline.  Compact separators keep
    the hot path small; byte-stability of *reports* lives in the stable
    dict forms inside the envelope, not in the envelope itself."""
    return (json.dumps(envelope, ensure_ascii=False,
                       separators=(",", ":")) + "\n").encode("utf-8")


def read_wire_line(stream, limit: int = MAX_LINE_BYTES) -> bytes | None:
    """Read one bounded wire line from a binary stream.

    Returns ``None`` at EOF.  A line longer than ``limit`` raises
    :class:`OversizedLine` *before* the rest of it is buffered — the
    caller sends a structured error and drops the connection (there is
    no way to find the next envelope boundary inside an abandoned
    line).  A final line with no trailing newline (mid-write
    disconnect) is returned as-is; it either parses or becomes a
    normal ``bad JSON`` protocol error.
    """
    line = stream.readline(limit + 1)
    if not line:
        return None
    if len(line) > limit:
        raise OversizedLine(
            f"envelope line exceeds {limit} bytes; dropping connection")
    return line


def decode_line(line: bytes | str) -> dict:
    """Parse one wire line into an envelope dict.

    Raises :class:`ProtocolError` for non-JSON, non-object, or
    version-incompatible lines — the server turns that into a
    structured error response instead of dropping the connection.
    """
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise OversizedLine(
                f"envelope line exceeds {MAX_LINE_BYTES} bytes")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"undecodable line: {error}") from error
    try:
        envelope = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"bad JSON: {error}") from error
    if not isinstance(envelope, dict):
        raise ProtocolError(
            f"expected a JSON object, got {type(envelope).__name__}")
    version = envelope.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol v{version!r} "
            f"(this build speaks v{PROTOCOL_VERSION})")
    return envelope


def make_request(op: str, *, id: object = None, priority: int = 0,
                 request: dict | None = None,
                 deadline: float | None = None,
                 tenant: str | None = None) -> dict:
    """Build a client → server envelope (validated).

    ``deadline`` is a wall-clock Unix timestamp (``time.time()``
    domain); ``tenant`` names the admission-control bucket.
    """
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; choose from {OPS}")
    envelope = {"v": PROTOCOL_VERSION, "op": op, "id": id}
    if deadline is not None:
        envelope["deadline"] = float(deadline)
    if tenant is not None:
        envelope["tenant"] = str(tenant)
    if op == "analyze":
        if request is None:
            raise ProtocolError("analyze needs a request payload")
        envelope["priority"] = int(priority)
        envelope["request"] = request
    return envelope


@dataclass(frozen=True)
class ParsedRequest:
    """A validated client envelope.  Absent ``deadline`` / ``tenant``
    parse as ``None``: the unbounded / default-tenant behavior."""

    op: str
    id: object
    priority: int
    payload: dict | None
    deadline: float | None = None
    tenant: str | None = None


def parse_request(envelope: dict) -> ParsedRequest:
    """Validate a decoded client envelope."""
    op = envelope.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; choose from {OPS}")
    request = envelope.get("request")
    if op == "analyze" and not isinstance(request, dict):
        raise ProtocolError("analyze needs a request payload")
    priority = envelope.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ProtocolError(f"priority must be an int, got {priority!r}")
    deadline = envelope.get("deadline")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) \
                or isinstance(deadline, bool):
            raise ProtocolError(
                f"deadline must be a number, got {deadline!r}")
        deadline = float(deadline)
    tenant = envelope.get("tenant")
    if tenant is not None and not isinstance(tenant, str):
        raise ProtocolError(f"tenant must be a string, got {tenant!r}")
    return ParsedRequest(op=op, id=envelope.get("id"), priority=priority,
                         payload=request, deadline=deadline, tenant=tenant)


def make_response(id: object, *, result: object = None,
                  error: str | None = None, busy: bool = False,
                  code: str | None = None) -> dict:
    """Build a server → client envelope.  ``code`` machine-names the
    error; ``busy`` marks a load-shed rejection."""
    envelope = {"v": PROTOCOL_VERSION, "id": id, "ok": error is None,
                "result": result, "error": error, "busy": busy}
    if code is not None:
        envelope["code"] = code
    return envelope


def error_response(id: object, message: str, *, busy: bool = False,
                   code: str | None = None) -> dict:
    return make_response(id, error=message, busy=busy, code=code)


def parse_response(envelope: dict) -> dict:
    """Validate a decoded server envelope (shape only; the caller
    interprets ``result`` by the op it sent)."""
    if "ok" not in envelope or "id" not in envelope:
        raise ProtocolError("response missing ok/id fields")
    return envelope
