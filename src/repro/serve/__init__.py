"""``clou serve``: a persistent analysis daemon and its client.

The daemon keeps one :class:`~repro.sched.ClouSession` resident —
warm worker pool, hot compile/S-AEG memos, open result cache — and
speaks a newline-delimited JSON protocol whose payloads are exactly
the library wire forms (:meth:`AnalysisRequest.to_dict` /
:meth:`AnalysisResult.to_dict`).  Combined with the function-granular
cache keys of :mod:`repro.sched.digest`, a re-analysis after editing
one function re-runs only that function.

Public surface:

- :class:`ClouServer` — the daemon (UNIX socket or TCP, priority
  queue, ``--max-inflight`` load shedding, clean SIGTERM shutdown);
- :class:`ClouClient` — the client (:class:`DaemonUnreachable` /
  :class:`DaemonBusy` / :class:`DeadlineExceeded` distinguish "fall
  back to in-process" from "degraded, exit 3"), with failover,
  seeded retry/backoff, and deadline stamping;
- :mod:`repro.serve.protocol` — the envelope codec
  (:data:`PROTOCOL_VERSION`; other versions are rejected).
"""

from repro.serve.client import ClouClient, DaemonBusy, DaemonUnreachable, \
    DeadlineExceeded
from repro.serve.protocol import OPS, PROTOCOL_VERSION, ProtocolError
from repro.serve.server import ClouServer

__all__ = [
    "ClouClient",
    "ClouServer",
    "DaemonBusy",
    "DaemonUnreachable",
    "DeadlineExceeded",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
]
