"""One home for every ``REPRO_*`` environment default.

The CLI, the library :class:`~repro.sched.ClouSession`, and the
``clou serve`` daemon must agree on what the environment means — a
daemon that read ``$REPRO_JOBS`` differently from the CLI would give
different answers depending on which front-end handled the request.
Every accessor below is the *single* implementation, and its callers
(the session, the CLI, the fault injector, the daemon client) call it
directly.

All accessors are total: malformed values degrade to the documented
default instead of raising, so a stray ``REPRO_JOBS=lots`` never takes
down a daemon at import time.
"""

from __future__ import annotations

import os

__all__ = [
    "CACHE_DIR_ENV",
    "FAULTS_ENV",
    "JOBS_ENV",
    "SOCKETS_ENV",
    "SOCKET_ENV",
    "TENANT_ENV",
    "env_cache_dir",
    "env_fault_spec",
    "env_jobs",
    "env_socket",
    "env_sockets",
    "env_tenant",
]

#: Worker process count for :class:`ClouSession` (default 1 = serial).
JOBS_ENV = "REPRO_JOBS"

#: Result-cache directory (unset = caching off for library use; the
#: CLI and daemon fall back to the per-user cache directory).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Deterministic fault-injection spec (see :mod:`repro.sched.faults`).
FAULTS_ENV = "REPRO_FAULTS"

#: Default UNIX socket path for ``clou serve`` and its clients.
SOCKET_ENV = "REPRO_SOCKET"

#: ``os.pathsep``-separated UNIX socket failover list for daemon
#: clients (tried in order; wins over ``$REPRO_SOCKET`` when set).
SOCKETS_ENV = "REPRO_SOCKETS"

#: Default tenant name stamped on client envelopes for the daemon's
#: per-tenant admission control (unset = the shared default bucket).
TENANT_ENV = "REPRO_TENANT"


def _text(name: str) -> str:
    return os.environ.get(name, "").strip()


def env_jobs(default: int = 1) -> int:
    """``$REPRO_JOBS`` clamped to ``>= 1``; ``default`` when unset or
    unparseable."""
    raw = _text(JOBS_ENV)
    try:
        return max(1, int(raw)) if raw else max(1, default)
    except ValueError:
        return max(1, default)


def env_cache_dir() -> str | None:
    """``$REPRO_CACHE_DIR`` when set and non-empty, else ``None``."""
    return _text(CACHE_DIR_ENV) or None


def env_fault_spec() -> str | None:
    """``$REPRO_FAULTS`` when set and non-empty, else ``None``."""
    return _text(FAULTS_ENV) or None


def env_socket() -> str | None:
    """``$REPRO_SOCKET`` when set and non-empty, else ``None``."""
    return _text(SOCKET_ENV) or None


def env_sockets() -> tuple[str, ...]:
    """``$REPRO_SOCKETS`` as an ordered failover list (PATH-style
    ``os.pathsep`` separators, empty parts dropped); ``()`` when
    unset."""
    raw = _text(SOCKETS_ENV)
    if not raw:
        return ()
    return tuple(part for part in
                 (piece.strip() for piece in raw.split(os.pathsep))
                 if part)


def env_tenant() -> str | None:
    """``$REPRO_TENANT`` when set and non-empty, else ``None``."""
    return _text(TENANT_ENV) or None
