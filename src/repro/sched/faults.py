"""Deterministic, seeded fault injection for degradation testing.

The analysis stack declares *named injection points* (see
:data:`SITES`); a :class:`FaultPlan` decides, purely as a function of
``(seed, site, hit count)``, whether the Nth arrival at a site fires a
fault.  Everything is deterministic: the same plan against the same
(serial) execution fires the same faults, which is what lets the
``degradation`` fuzz oracle and ``make fault-smoke`` compare a faulted
run against its fault-free twin.

Actions
-------
``crash``
    ``os._exit(86)`` — the process dies without cleanup, exercising the
    scheduler's crash isolation and checkpoint-resume paths.
``hang``
    Sleep far past any reasonable deadline (in small slices, so a
    wall-clock kill reaps the worker promptly), exercising the hung-item
    kill and heartbeat stall detection.
``memory``
    Raise :class:`MemoryError`, exercising the memory-pressure handling
    (the real analogue is a worker hitting its ``RLIMIT_AS`` ceiling).
``budget``
    Cooperative: the *call site* asks :func:`fault_point` and, on
    ``"budget"``, degrades itself (at ``engine.candidate`` the engine's
    search budget expires, exactly as an elapsed timeout does).  Raising
    sites ignore it.
``drop`` / ``stall`` / ``garble``
    Serve-layer actions (cooperative, like ``budget``): the daemon's
    transport sites (``serve.*``) interpret them as discarding a
    message, delaying it, or corrupting its bytes.  At ``serve.*``
    sites even ``crash`` is cooperative — it tears down the *connection*
    abruptly, never the daemon process — so a chaos sweep exercises
    client-visible transport failures while the daemon under test
    survives to serve the next seed.  Analysis-layer sites ignore these
    actions.

Spec grammar
------------
A plan is a semicolon-separated list::

    seed=42;budget@engine.candidate%0.5;hang@worker.item#3

- ``seed=N`` seeds the probabilistic rules (default 0);
- ``ACTION@SITE#N`` fires once, on the Nth arrival at SITE (1-based,
  counted per process — a respawned worker counts from zero again);
- ``ACTION@SITE%P`` fires on each arrival with probability P, decided
  by a hash of ``(seed, site, hit index)`` so it is reproducible and
  identical across processes.

Activation: pass a spec through ``ClouConfig.fault_spec`` (reaches
worker processes through the serialized work-item payload) or set
``$REPRO_FAULTS`` (inherited by forked workers).  Off by default;
when no plan is armed the only cost at a site is one module-attribute
load and a ``None`` check.
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from dataclasses import dataclass

from repro.sched.env import env_fault_spec

__all__ = ["ACTIONS", "FaultPlan", "FaultSpecError",
           "SERVE_ACTIONS", "SITES", "activate", "active_plan",
           "fault_point", "parse_spec"]

ACTIONS = ("crash", "hang", "memory", "budget", "drop", "stall", "garble")

#: Actions the serve transport sites interpret (see
#: :class:`repro.serve.server.ClouServer`); every serve-site action is
#: cooperative — returned to the caller, never executed here.
SERVE_ACTIONS = ("drop", "stall", "garble", "crash")

#: The injection points the analysis stack declares, for documentation
#: and spec validation ("every defined injection point" in the
#: fault-smoke sweep iterates this).
SITES = {
    "worker.item": "start of one scheduled work item "
                   "(repro.sched.worker.execute_item)",
    "engine.candidate": "right after the Nth candidate transmitter is "
                        "processed and checkpointed (repro.clou.engine); "
                        "N is the candidate's cursor position, stable "
                        "across resume, so a resumed attempt gets past a "
                        "crash/hang here instead of re-firing it; "
                        "'budget' expires the search budget",
    "serve.accept": "one accepted daemon connection, before its reader "
                    "thread starts (repro.serve.server); drop/crash "
                    "close it unserved, stall delays it",
    "serve.read": "one request envelope line read off a connection; "
                  "drop ignores it, garble corrupts it before parsing, "
                  "stall delays it, crash drops the connection",
    "serve.write": "one response envelope about to be sent; drop "
                   "discards it (the client times out against its "
                   "deadline), garble corrupts the bytes, stall delays "
                   "the send, crash closes the connection instead",
    "serve.dispatch": "one queued analyze op popped by the dispatcher; "
                      "drop discards it unanswered, stall delays the "
                      "run, crash closes the client's connection",
}

_HANG_SECONDS = 600.0
_HANG_SLICE = 0.05


class FaultSpecError(ValueError):
    """A fault spec string did not parse."""


@dataclass(frozen=True)
class FaultRule:
    """One ``ACTION@SITE`` clause of a plan."""

    action: str
    site: str
    nth: int | None = None          # fire exactly on the nth hit
    probability: float | None = None  # else fire per-hit with this p

    def fires(self, seed: int, hit: int) -> bool:
        """Does this rule fire on the ``hit``-th (1-based) arrival?"""
        if self.nth is not None:
            return hit == self.nth
        digest = zlib.crc32(f"{seed}:{self.site}:{hit}".encode("ascii"))
        return (digest / 0xFFFFFFFF) < (self.probability or 0.0)

    def render(self) -> str:
        if self.nth is not None:
            return f"{self.action}@{self.site}#{self.nth}"
        return f"{self.action}@{self.site}%{self.probability:g}"


class FaultPlan:
    """A parsed spec plus per-process hit counters."""

    def __init__(self, rules: tuple[FaultRule, ...], seed: int = 0):
        self.rules = rules
        self.seed = seed
        self._hits: dict[str, int] = {}
        self.fired: dict[str, int] = {}   # "action@site" -> fire count
        # The analysis paths are single-threaded per process, but the
        # daemon fires serve.* sites from its accept/reader/dispatcher
        # threads concurrently; counters must not race.
        self._lock = threading.Lock()

    def render(self) -> str:
        """The canonical spec string (``parse_spec`` round-trips it)."""
        parts = [f"seed={self.seed}"]
        parts.extend(rule.render() for rule in self.rules)
        return ";".join(parts)

    def fire(self, site: str, hit: int | None = None) -> str | None:
        """Record one arrival at ``site``; the action to take, if any.
        The first matching rule wins.  ``hit`` overrides the per-process
        arrival counter with a caller-supplied position (1-based) —
        sites with resume-stable positions (``engine.candidate``) use
        this so a resumed attempt does not re-fire faults the checkpoint
        already got past."""
        with self._lock:
            arrival = self._hits.get(site, 0) + 1
            self._hits[site] = arrival
            if hit is None:
                hit = arrival
            for rule in self.rules:
                if rule.site == site and rule.fires(self.seed, hit):
                    key = f"{rule.action}@{site}"
                    self.fired[key] = self.fired.get(key, 0) + 1
                    return rule.action
        return None


def parse_spec(spec: str) -> FaultPlan:
    """Parse the grammar in the module docstring."""
    rules: list[FaultRule] = []
    seed = 0
    for raw in spec.split(";"):
        part = raw.strip()
        if not part:
            continue
        if part.startswith("seed="):
            try:
                seed = int(part[len("seed="):])
            except ValueError:
                raise FaultSpecError(f"bad seed in fault spec: {part!r}")
            continue
        if "@" not in part:
            raise FaultSpecError(
                f"bad fault rule {part!r}: expected ACTION@SITE#N or "
                f"ACTION@SITE%P")
        action, _, target = part.partition("@")
        if action not in ACTIONS:
            raise FaultSpecError(
                f"unknown fault action {action!r}; choose from {ACTIONS}")
        nth: int | None = None
        probability: float | None = None
        if "#" in target:
            site, _, count = target.partition("#")
            try:
                nth = int(count)
            except ValueError:
                raise FaultSpecError(f"bad hit count in {part!r}")
            if nth < 1:
                raise FaultSpecError(f"hit count must be >= 1 in {part!r}")
        elif "%" in target:
            site, _, prob = target.partition("%")
            try:
                probability = float(prob)
            except ValueError:
                raise FaultSpecError(f"bad probability in {part!r}")
            if not 0.0 <= probability <= 1.0:
                raise FaultSpecError(
                    f"probability must be in [0, 1] in {part!r}")
        else:
            raise FaultSpecError(
                f"bad fault rule {part!r}: missing #N or %P trigger")
        if site not in SITES:
            raise FaultSpecError(
                f"unknown injection site {site!r}; choose from "
                f"{sorted(SITES)}")
        rules.append(FaultRule(action=action, site=site, nth=nth,
                               probability=probability))
    return FaultPlan(tuple(rules), seed=seed)


# ----------------------------------------------------------------------
# Process-global arming
# ----------------------------------------------------------------------

def _env_plan() -> FaultPlan | None:
    spec = env_fault_spec()
    return parse_spec(spec) if spec else None


# The armed plan.  Module import is the only place the environment is
# consulted, so spawned workers (which re-import) and forked workers
# (which inherit the module state) both see $REPRO_FAULTS.
_plan: FaultPlan | None = _env_plan()
_base_plan: FaultPlan | None = _plan


def active_plan() -> FaultPlan | None:
    return _plan


class activate:
    """Context manager arming ``spec`` for the dynamic extent (a work
    item, usually).  ``spec=None`` keeps whatever is already armed (the
    ``$REPRO_FAULTS`` baseline), so un-faulted items are unaffected."""

    def __init__(self, spec: str | None):
        self._spec = spec
        self._previous: FaultPlan | None = None

    def __enter__(self) -> FaultPlan | None:
        global _plan
        self._previous = _plan
        if self._spec:
            _plan = parse_spec(self._spec)
        return _plan

    def __exit__(self, *exc) -> None:
        global _plan
        _plan = self._previous


def fault_point(site: str, hit: int | None = None) -> str | None:
    """Declare one arrival at an injection point.

    Raising actions (``crash``/``hang``/``memory``) are executed here;
    ``"budget"`` is returned for the call site to degrade cooperatively.
    With no plan armed this is a no-op (one attribute load + compare).
    """
    if _plan is None:
        return None
    action = _plan.fire(site, hit)
    if site.startswith("serve."):
        # Transport sites are always cooperative: the serve layer maps
        # the action onto its connection (crash = connection teardown,
        # never process death — the daemon must outlive its faults).
        return action
    if action == "crash":
        os._exit(86)
    if action == "hang":
        deadline = time.monotonic() + _HANG_SECONDS
        while time.monotonic() < deadline:
            time.sleep(_HANG_SLICE)
        raise TimeoutError(f"injected hang at {site} outlived its "
                           f"{_HANG_SECONDS:g}s backstop")
    if action == "memory":
        raise MemoryError(f"injected memory exhaustion at {site}")
    return action
