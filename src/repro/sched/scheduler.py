"""Fault-isolated parallel work-item scheduler.

Fans independent work items out over a pool of worker *processes* (one
long-lived process per job slot, fed over pipes), with:

- **crash isolation** — a worker that dies (segfault, ``os._exit``,
  OOM-kill) produces an errored outcome for its item and a fresh worker
  process; the batch always completes;
- **wall-clock timeouts** — a hung item is hard-killed at its deadline
  (``concurrent.futures.ProcessPoolExecutor`` cannot do this: a running
  future is uncancellable, so the pool keeps its own slots);
- **bounded retries** — crashed items and items raising
  :class:`TransientError` or ``MemoryError`` are re-queued up to
  ``retries`` extra attempts; deterministic failures (ordinary
  exceptions) are not retried, and timeouts only from a checkpoint;
- **a deterministic serial fallback** — ``jobs <= 1``, an unavailable
  ``multiprocessing``, or pickling-hostile payloads all run the same
  items in-process, in order.

Both paths share one attempt and one per-item record: :func:`_attempt`
calls the worker and maps its exceptions to a status (in-process on the
serial path, in the child in the pool), and :meth:`ItemOutcome.settle`
records how each attempt ended and decides whether the item runs
again.  The pool adds only what a process brings: crash detection,
wall-clock and stall kills, and interrupt handling.  So an outcome does
not depend on ``jobs``.  Results are returned in submission order
regardless of completion order, so downstream output is byte-stable
across ``--jobs`` settings.

Worker processes persist across items, so worker-side memoization (the
compiled-module and S-AEG caches in :mod:`repro.sched.worker`) pays off
when many items share a translation unit.

Degradation support (workers opting in via a ``supports_checkpoints``
attribute):

- **checkpoint/resume** — workers stream progress up the pipe as
  deltas (the engine's messages carry only the witnesses found since
  the previous one), and :func:`_fold` rebuilds the full checkpoint in
  the parent, as the serial path does in-process; a wall-clock kill,
  crash, or memory kill re-queues the item *with its last checkpoint*,
  so the retry resumes instead of restarting, and the merged result is
  identical to an uninterrupted run.  An item that fails for good keeps
  its last checkpoint in ``ItemOutcome.partial``, whatever the failure
  and on both paths; a success drops it;
- **heartbeats** — checkpoint messages double as liveness beats:
  ``stall_timeout`` kills items whose worker went silent (hung) long
  before the full ``timeout``, distinguishing hung from merely slow;
- **memory ceilings** — ``memory_limit_mb`` applies
  ``resource.setrlimit(RLIMIT_AS)`` in each worker, converting runaway
  allocation into a recoverable ``MemoryError`` instead of an OOM kill;
- **clean interrupts** — SIGINT/SIGTERM in the parent terminates and
  joins every worker slot, discards partial checkpoints, and raises
  :class:`SchedulerInterrupt` for the CLI to turn into exit code 130.
"""

from __future__ import annotations

import pickle
import signal
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["ItemOutcome", "SchedulerInterrupt", "TransientError",
           "run_items"]

# Parent-loop tick: bounds how late a deadline kill or crash detection
# can fire.  Small enough to be unnoticeable, large enough to be free.
_TICK_SECONDS = 0.05


class TransientError(Exception):
    """Raised by a worker to request a retry (e.g. a flaky external
    resource).  Ordinary exceptions are deterministic failures and are
    not retried."""


class SchedulerInterrupt(Exception):
    """The batch was interrupted (SIGINT/SIGTERM) after a clean
    shutdown: workers terminated and joined, partial checkpoints
    discarded.  The CLI maps this to exit code 130."""


@dataclass
class ItemOutcome:
    """What happened to one work item, across all its attempts."""

    index: int
    value: Any = None
    error: str | None = None
    timed_out: bool = False
    crashed: bool = False
    attempts: int = 0
    elapsed: float = 0.0       # wall seconds across all attempts
    resumed: int = 0           # attempts that resumed from a checkpoint
    memory_killed: bool = False  # some attempt died of MemoryError
    partial: Any = None        # last checkpoint; kept when the item fails

    @property
    def ok(self) -> bool:
        return self.error is None

    def start(self) -> Any:
        """Count an attempt; return the checkpoint it resumes from."""
        self.attempts += 1
        if self.partial is not None:
            self.resumed += 1
        return self.partial

    def settle(self, status: str, value: Any, retries: int) -> bool:
        """Record how the last attempt ended; return whether the item
        runs again.  ``status`` is an :func:`_attempt` status, or
        ``"crash"`` (the worker process died) or ``"timeout"`` (the pool
        killed it at a deadline).  Memory, transient and crash failures
        retry while attempts remain; a timeout only with a checkpoint
        (from scratch it would hit the same deadline again); an ordinary
        error never.  A success drops the checkpoint."""
        if status == "ok":
            self.value, self.error, self.partial = value, None, None
        else:
            self.error = value
        self.crashed = status == "crash"
        self.timed_out = status == "timeout"
        self.memory_killed |= status == "memory"
        retry = status in ("memory", "transient", "crash") or (
            status == "timeout" and self.partial is not None)
        return retry and self.attempts <= retries


def _attempt(worker, payload, resume, emit) -> tuple[str, Any]:
    """Call ``worker`` on ``payload`` once: ``("ok", result)``, or
    ``("memory" | "transient" | "error", message)`` for the exception
    it raised.  A checkpoint-capable worker resumes from ``resume`` and
    reports progress to ``emit``; any other gets the payload alone."""
    try:
        if getattr(worker, "supports_checkpoints", False):
            return "ok", worker(payload, resume=resume, checkpoint=emit)
        return "ok", worker(payload)
    except MemoryError as error:
        return "memory", f"MemoryError: {error}"
    except TransientError as error:
        return "transient", f"{type(error).__name__}: {error}"
    except Exception as error:
        return "error", f"{type(error).__name__}: {error}"


def run_items(worker: Callable[[Any], Any], payloads: list,
              *, jobs: int = 1, timeout: float | None = None,
              retries: int = 1, memory_limit_mb: int | None = None,
              stall_timeout: float | None = None) -> list[ItemOutcome]:
    """Run ``worker(payload)`` for every payload; never raises for
    per-item failures (an interrupt raises :class:`SchedulerInterrupt`
    after clean shutdown).  ``timeout`` is a per-item wall-clock limit
    and ``stall_timeout`` a per-item heartbeat limit (both parallel mode
    only — a serial run cannot kill itself; the engines' cooperative
    ``ClouConfig.timeout_seconds`` budget covers that path).
    ``memory_limit_mb`` caps each worker's address space.
    """
    if not payloads:
        return []
    if jobs > 1:
        pool = _try_parallel(worker, payloads, jobs, memory_limit_mb)
        if pool is not None:
            with pool:
                return pool.run(payloads, timeout=timeout, retries=retries,
                                stall_timeout=stall_timeout)
    return _run_serial(worker, payloads, retries=retries)


def _run_serial(worker, payloads, *, retries: int) -> list[ItemOutcome]:
    outcomes = []
    for index, payload in enumerate(payloads):
        outcome = ItemOutcome(index=index)

        def emit(message, outcome=outcome):
            outcome.partial = _fold(outcome.partial, message)
        started = time.monotonic()
        try:
            while outcome.settle(*_attempt(worker, payload, outcome.start(),
                                           emit), retries):
                pass
        except KeyboardInterrupt:
            raise SchedulerInterrupt("interrupted") from None
        outcome.elapsed = time.monotonic() - started
        outcomes.append(outcome)
    return outcomes


# ----------------------------------------------------------------------
# Parallel pool
# ----------------------------------------------------------------------


def _try_parallel(worker, payloads, jobs,
                  memory_limit_mb=None) -> "_Pool | None":
    """A ready pool, or ``None`` when the batch must run serially:
    ``multiprocessing`` is unavailable or the workload will not
    pickle."""
    try:
        import multiprocessing as mp

        methods = mp.get_all_start_methods()
        method = "fork" if "fork" in methods else methods[0]
        ctx = mp.get_context(method)
    except (ImportError, ValueError, OSError):
        return None
    try:
        # Payloads cross a pipe in both modes; the worker itself only
        # needs to pickle under spawn/forkserver.
        pickle.dumps(payloads)
        if method != "fork":
            pickle.dumps(worker)
    except Exception:
        return None
    return _Pool(ctx, worker, jobs=min(jobs, len(payloads)),
                 memory_limit_mb=memory_limit_mb)


def _apply_memory_limit(limit_mb: int | None) -> None:
    """Cap the worker's address space so runaway allocation raises a
    recoverable MemoryError instead of drawing the kernel OOM killer."""
    if not limit_mb:
        return
    try:
        import resource

        ceiling = int(limit_mb) * 1024 * 1024
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY:
            ceiling = min(ceiling, hard)
        resource.setrlimit(resource.RLIMIT_AS, (ceiling, hard))
    except (ImportError, ValueError, OSError):
        pass  # platform without RLIMIT_AS: ceiling is best-effort


def _fold(previous, delta):
    """Rebuild the full checkpoint from the last one and a checkpoint
    message (see :class:`repro.clou.engine._SearchState`), as
    ``previous["witnesses"] + delta["witnesses"]``: the pool's parent
    folds what its workers stream, the serial path what the engine
    emits in-process.  The list of ``previous`` is extended in place
    (its dict is dropped), so the work per message is linear in the new
    witnesses.  ``base`` must equal the witnesses ``previous`` holds (0
    starts a new list): a message that does not extend the last
    checkpoint raises instead of leaving a gap or dropping witnesses.
    Messages without ``base`` replace the checkpoint as they are."""
    if not isinstance(delta, dict) or "base" not in delta:
        return delta
    full = dict(delta)
    base = full.pop("base")
    witnesses = previous["witnesses"] \
        if base and isinstance(previous, dict) else []
    if len(witnesses) != base:
        raise RuntimeError(
            f"checkpoint delta starts at witness {base}, but the last "
            f"checkpoint holds {len(witnesses)}")
    witnesses.extend(full["witnesses"])
    full["witnesses"] = witnesses
    return full


def _worker_loop(worker, conn, memory_limit_mb=None):
    """Runs in the child: receive ``(index, payload, resume)``, send
    ``(index, status, value)`` — plus interim ``"checkpoint"`` messages
    when the worker supports them (these double as heartbeats; the
    parent folds them with :func:`_fold`).  Exits on the ``None``
    sentinel or a closed pipe."""
    _apply_memory_limit(memory_limit_mb)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        index, payload, resume = message

        def emit(message, _index=index):
            try:
                conn.send((_index, "checkpoint", message))
            except (OSError, ValueError):
                pass  # parent gone; the terminal send will fail too
        status, value = _attempt(worker, payload, resume, emit)
        try:
            conn.send((index, status, value))
        except Exception as error:
            # The *result* failed to pickle; report that instead of dying.
            conn.send((index, "error",
                       f"unpicklable result: {type(error).__name__}: {error}"))


@dataclass
class _Slot:
    proc: Any
    conn: Any
    item: int | None = None      # index of the in-flight item
    started: float = 0.0
    last_beat: float = 0.0       # the last checkpoint message (or the send)


class _Pool:
    def __init__(self, ctx, worker, jobs: int,
                 memory_limit_mb: int | None = None):
        self._ctx = ctx
        self._worker = worker
        self.jobs = jobs
        self.memory_limit_mb = memory_limit_mb
        self._slots: list[_Slot] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._shutdown()
        return False

    def _spawn(self) -> _Slot:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_loop,
            args=(self._worker, child_conn, self.memory_limit_mb),
            daemon=True)
        proc.start()
        child_conn.close()
        slot = _Slot(proc=proc, conn=parent_conn)
        self._slots.append(slot)
        return slot

    def _retire(self, slot: _Slot) -> None:
        try:
            slot.conn.close()
        except OSError:
            pass
        if slot.proc.is_alive():
            slot.proc.kill()
        slot.proc.join()
        self._slots.remove(slot)

    def _shutdown(self) -> None:
        for slot in list(self._slots):
            try:
                slot.conn.send(None)
            except (OSError, ValueError):
                pass
        for slot in list(self._slots):
            slot.proc.join(timeout=0.5)
            self._retire(slot)

    def _abort(self) -> None:
        """Interrupt path: hard-kill and join every worker, discarding
        in-flight items and their (in-memory) partial checkpoints."""
        for slot in list(self._slots):
            self._retire(slot)

    def run(self, payloads, *, timeout: float | None, retries: int,
            stall_timeout: float | None = None) -> list[ItemOutcome]:
        from multiprocessing.connection import wait as conn_wait

        outcomes = [ItemOutcome(index=i) for i in range(len(payloads))]
        queue = deque(range(len(payloads)))
        unsettled = set(queue)
        heartbeats = getattr(self._worker, "supports_checkpoints", False)

        # A SIGTERM (e.g. from a batch supervisor) should shut down as
        # cleanly as Ctrl-C; only the main thread may install handlers.
        def on_term(signum, frame):
            raise KeyboardInterrupt
        try:
            previous_term = signal.signal(signal.SIGTERM, on_term)
        except ValueError:
            previous_term = None

        def settle(index: int, status: str, value: Any) -> None:
            if outcomes[index].settle(status, value, retries):
                queue.append(index)
            else:
                unsettled.discard(index)

        def end(slot: _Slot, status: str, value: Any, now: float) -> None:
            """Settle the slot's in-flight item.  After a crash, a kill
            (the only way to stop a hung item) or a MemoryError (the
            heap is suspect at its RLIMIT_AS ceiling) the process goes;
            a fresh one takes the slot's next item."""
            index, slot.item = slot.item, None
            outcomes[index].elapsed += now - slot.started
            settle(index, status, value)
            if status in ("crash", "timeout", "memory"):
                self._retire(slot)

        try:
            while unsettled:
                # Feed idle slots, spawning up to the job budget.
                while queue:
                    slot = next((s for s in self._slots if s.item is None),
                                None)
                    if slot is None and len(self._slots) < self.jobs:
                        slot = self._spawn()
                    if slot is None:
                        break
                    index = queue.popleft()
                    try:
                        slot.conn.send((index, payloads[index],
                                        outcomes[index].partial))
                    except pickle.PicklingError as error:
                        settle(index, "error",
                               f"unpicklable payload: {error}")
                        continue
                    except (OSError, ValueError):
                        # The worker died while idle; replace it and retry
                        # the send without charging the item an attempt.
                        queue.appendleft(index)
                        self._retire(slot)
                        continue
                    outcomes[index].start()
                    slot.item = index
                    slot.started = slot.last_beat = time.monotonic()

                busy = [slot for slot in self._slots if slot.item is not None]
                if not busy:
                    break  # defensive: nothing running, nothing queued
                ready = conn_wait([slot.conn for slot in busy],
                                  timeout=_TICK_SECONDS)
                now = time.monotonic()
                for slot in busy:
                    outcome = outcomes[slot.item]
                    if slot.conn in ready:
                        try:
                            # Drain the pipe: checkpoint heartbeats
                            # stream ahead of the terminal result.
                            _, status, value = slot.conn.recv()
                            while status == "checkpoint":
                                outcome.partial = _fold(outcome.partial,
                                                        value)
                                slot.last_beat = time.monotonic()
                                if not slot.conn.poll():
                                    break
                                _, status, value = slot.conn.recv()
                        except (EOFError, OSError):
                            # Died mid-send (or between recv and send).
                            status, value = "crash", "worker process died"
                        if status != "checkpoint":
                            end(slot, status, value, now)
                    elif not slot.proc.is_alive() and not slot.conn.poll():
                        end(slot, "crash", "worker process died", now)
                    elif timeout is not None and now - slot.started > timeout:
                        end(slot, "timeout",
                            f"wall-clock timeout after {timeout:g}s", now)
                    elif heartbeats and stall_timeout is not None and \
                            now - slot.last_beat > stall_timeout:
                        # No heartbeat for a full stall window: hung, not
                        # slow (a live checkpoint-capable worker beats on
                        # every processed candidate).
                        end(slot, "timeout",
                            f"no heartbeat for {stall_timeout:g}s (hung)",
                            now)
        except KeyboardInterrupt:
            self._abort()
            raise SchedulerInterrupt(
                f"interrupted with {len(payloads) - len(unsettled)}/"
                f"{len(payloads)} items done") from None
        finally:
            if previous_term is not None:
                try:
                    signal.signal(signal.SIGTERM, previous_term)
                except ValueError:
                    pass
        for index in unsettled:  # never an ok outcome for an unrun item
            outcomes[index].error = "not settled by the worker pool"
        return outcomes
