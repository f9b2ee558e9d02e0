"""Observability for the analysis scheduler.

Every scheduled work item records an :class:`ItemStats`; a
:class:`SessionStats` aggregates them (cache hits/misses, retries,
timeouts, crashes, candidate/pruned counters from the engines, wall and
CPU-work seconds).  ``clou analyze --stats`` prints the summary; the
counters also land on :attr:`repro.clou.report.ModuleReport.stats`.

Wall-clock data never enters the byte-stable ``--json`` output — stats
are printed separately (to stderr under ``--json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class ItemStats:
    """One scheduled (function, engine) work item."""

    label: str = ""            # e.g. "victim/pht" or "lint:victim.c"
    kind: str = "analyze"      # 'analyze' | 'repair' | 'lint'
    elapsed: float = 0.0       # worker-side wall seconds (0 for cache hits)
    attempts: int = 1
    cache: str = "off"         # 'hit' | 'miss' | 'off'
    cache_corrupt: bool = False  # the probe quarantined a corrupt entry
    timed_out: bool = False
    crashed: bool = False
    errored: bool = False
    resumed: int = 0           # attempts that resumed from a checkpoint
    memory_killed: bool = False  # some attempt hit the RLIMIT_AS ceiling

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)


@dataclass
class SessionStats:
    """Aggregated scheduler counters for a session (or one request)."""

    jobs: int = 1
    items: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_corrupt: int = 0     # corrupt entries quarantined on read
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    errors: int = 0
    resumed: int = 0           # checkpoint-resumed attempts
    memory_killed: int = 0     # items killed by the memory ceiling
    candidates: int = 0
    pruned: int = 0
    skipped: int = 0           # candidates never examined (budget/cap)
    work_seconds: float = 0.0  # sum of per-item worker time
    wall_seconds: float = 0.0  # parent-side elapsed for the batch
    per_item: list[ItemStats] = field(default_factory=list)

    def record(self, item: ItemStats) -> None:
        self.items += 1
        if item.cache == "hit":
            self.cache_hits += 1
        elif item.cache == "miss":
            self.cache_misses += 1
        self.cache_corrupt += int(item.cache_corrupt)
        self.retries += item.retries
        self.timeouts += int(item.timed_out)
        self.crashes += int(item.crashed)
        self.errors += int(item.errored)
        self.resumed += item.resumed
        self.memory_killed += int(item.memory_killed)
        self.work_seconds += item.elapsed
        self.per_item.append(item)

    def merge(self, other: "SessionStats") -> None:
        """Fold another batch's counters into this one (the session keeps
        a running total across every ``run()`` call).  ``per_item`` is
        not carried over: a running total must not grow with every
        item it has seen."""
        for name in _SUMMED:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @property
    def cache_hit_rate(self) -> float:
        probed = self.cache_hits + self.cache_misses
        return self.cache_hits / probed if probed else 0.0

    def to_dict(self) -> dict:
        """The stable wire form (documented in DESIGN.md): plain JSON
        scalars, one key per counter, ``cache_hit_rate`` derived.
        ``per_item`` detail never crosses the wire."""
        out = {"v": 1, "jobs": self.jobs}
        for name in _SUMMED:
            value = getattr(self, name)
            out[name] = round(value, 4) if isinstance(value, float) \
                else value
            if name == "cache_misses":  # the derived rate follows it
                out["cache_hit_rate"] = round(self.cache_hit_rate, 4)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SessionStats":
        """Invert :meth:`to_dict` (the ``--stats`` read path of a
        daemon run: per-request stats cross the daemon's process boundary as
        JSON).  Unknown keys are ignored for forward compatibility;
        ``cache_hit_rate`` is derived, never read; ``per_item`` comes
        back empty."""
        if not isinstance(data, dict):
            raise ValueError("SessionStats.from_dict needs a dict")
        version = data.get("v", 1)
        if version != 1:
            raise ValueError(f"unsupported SessionStats schema v{version}")
        stats = cls()
        for name in ("jobs",) + _SUMMED:
            if name in data:
                kind = type(getattr(stats, name))
                setattr(stats, name, kind(data[name]))
        return stats

    def summary(self) -> str:
        """The ``--stats`` line."""
        probed = self.cache_hits + self.cache_misses
        if probed:
            cache = (f"cache {self.cache_hits} hits / "
                     f"{self.cache_misses} misses "
                     f"({100.0 * self.cache_hit_rate:.1f}% hit rate)")
            if self.cache_corrupt:
                cache += f", {self.cache_corrupt} corrupt quarantined"
        else:
            cache = "cache off"
        return (
            f"stats: {self.items} items, jobs={self.jobs} | {cache} | "
            f"retries={self.retries} timeouts={self.timeouts} "
            f"crashes={self.crashes} errors={self.errors} | "
            f"resumed={self.resumed} memory_killed={self.memory_killed} | "
            f"candidates={self.candidates} pruned={self.pruned} "
            f"skipped={self.skipped} | "
            f"work {self.work_seconds:.2f}s, wall {self.wall_seconds:.2f}s"
        )


#: Every counter :meth:`SessionStats.merge` sums and the wire form
#: carries, in wire order: all fields but ``jobs`` and ``per_item``.
_SUMMED = tuple(f.name for f in fields(SessionStats)
                if f.name not in ("jobs", "per_item"))
