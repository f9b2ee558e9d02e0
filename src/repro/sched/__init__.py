"""Parallel fault-isolated analysis scheduling for Clou (§5's
per-function, per-engine workload is embarrassingly parallel).

Public surface:

- :class:`ClouSession` — config + executor + cache behind one API;
- :class:`AnalysisRequest` / :class:`AnalysisResult` — the batch I/O;
- :class:`SessionStats` / :class:`ItemStats` — observability counters;
- :class:`ResultCache` — the content-addressed on-disk result cache;
- :func:`run_items` / :class:`ItemOutcome` / :class:`TransientError` /
  :class:`SchedulerInterrupt` — the generic work-item scheduler
  underneath;
- :class:`FaultPlan` / :func:`fault_point` — the deterministic fault
  injector behind degradation testing.
"""

from repro.sched.cache import (ResultCache, item_cache_key, source_digest,
                               user_cache_dir)
from repro.sched.digest import function_digests
from repro.sched.env import CACHE_DIR_ENV, FAULTS_ENV, JOBS_ENV, \
    SOCKETS_ENV, SOCKET_ENV, TENANT_ENV, env_cache_dir, env_fault_spec, \
    env_jobs, env_socket, env_sockets, env_tenant
from repro.sched.faults import FaultPlan, FaultSpecError, fault_point, \
    parse_spec
from repro.sched.scheduler import (ItemOutcome, SchedulerInterrupt,
                                   TransientError, run_items)
from repro.sched.session import AnalysisRequest, AnalysisResult, \
    ClouSession, REQUEST_SCHEMA_VERSION
from repro.sched.stats import ItemStats, SessionStats

__all__ = [
    "AnalysisRequest",
    "AnalysisResult",
    "CACHE_DIR_ENV",
    "ClouSession",
    "FAULTS_ENV",
    "FaultPlan",
    "FaultSpecError",
    "ItemOutcome",
    "ItemStats",
    "JOBS_ENV",
    "REQUEST_SCHEMA_VERSION",
    "ResultCache",
    "SOCKETS_ENV",
    "SOCKET_ENV",
    "SchedulerInterrupt",
    "TENANT_ENV",
    "SessionStats",
    "TransientError",
    "env_cache_dir",
    "env_fault_spec",
    "env_jobs",
    "env_socket",
    "env_sockets",
    "env_tenant",
    "fault_point",
    "function_digests",
    "item_cache_key",
    "parse_spec",
    "run_items",
    "source_digest",
    "user_cache_dir",
]
