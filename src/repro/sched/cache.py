"""Content-addressed on-disk result cache for analysis work items.

A cache entry is keyed by the SHA-256 of a canonical JSON description of
the work: ``(schema version, kind, source hash, function, engine,
canonical ClouConfig, secrecy policy)``.  Anything that can change the
result is in the key, so entries never need invalidation — a config or
source edit simply misses.  Values are JSON (the serialized
:class:`FunctionReport` / :class:`LintReport`), written atomically via
``os.replace`` so concurrent runs can share a cache directory.

Only *clean* results are cached: errored, crashed, or timed-out items
are always re-run (a transient failure must not stick).

Fleet hygiene (multiple daemons mounting one shared cache directory):

- **self-healing reads** — a corrupt or schema-mismatched entry found
  by :meth:`ResultCache.get` is quarantined (best-effort unlink) on
  detection instead of being left on disk to re-miss forever; the
  ``corrupt`` counter surfaces through ``SessionStats`` / ``--stats``;
- **bounded size** — :meth:`ResultCache.gc` (the ``clou cache gc``
  command) prunes least-recently-*written* entries (mtime LRU; reads
  do not touch mtimes) until the directory fits a byte budget, so a
  fleet-shared mount cannot grow without bound.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

# Bump when the serialized report schema or the analysis itself changes
# incompatibly; old entries then miss instead of deserializing garbage.
# v2: analyze items are keyed by the function-granular normalized
# digest (repro.sched.digest) instead of the whole-module digest.
SCHEMA_VERSION = 2


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def item_cache_key(*, kind: str, source: str = "", source_key: str = "",
                   function: str = "", engine: str = "",
                   config_key: str = "",
                   secrets: tuple[str, ...] = (),
                   public: tuple[str, ...] = ()) -> str:
    """The content address of one work item's result.

    ``source_key`` names the source-content component of the key
    directly — the session passes the *function-granular* digest from
    :mod:`repro.sched.digest`, so an edit elsewhere in the module does
    not move this item's address.  When empty (lint items, or a
    function the module does not define) it falls back to the
    module-level digest of ``source``.
    """
    payload = json.dumps(
        {
            "v": SCHEMA_VERSION,
            "kind": kind,
            "source": source_key or source_digest(source),
            "function": function,
            "engine": engine,
            "config": config_key,
            "secrets": sorted(secrets),
            "public": sorted(public),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def user_cache_dir() -> str:
    """The CLI's default cache location."""
    base = os.environ.get("XDG_CACHE_HOME", "").strip() or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-clou")


class ResultCache:
    """A directory of ``<key[:2]>/<key>.json`` entries."""

    def __init__(self, root: str):
        self.root = root
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def quarantine(self, key: str) -> None:
        """Best-effort removal of a corrupt entry, so the next run gets
        a clean miss-and-rewrite instead of re-detecting the same
        garbage forever.  Counted in :attr:`corrupt` (surfaced through
        ``SessionStats`` / ``--stats``)."""
        self.corrupt += 1
        try:
            os.unlink(self._path(key))
        except OSError:
            pass

    def get(self, key: str) -> dict | None:
        """The cached payload, or ``None``.  A *missing* entry is a
        plain miss; a *present but undecodable or schema-mismatched*
        entry is quarantined (deleted best-effort) and then misses —
        on a fleet-shared cache mount one torn write must not become a
        permanent re-parse tax for every daemon."""
        try:
            with open(self._path(key), encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            self.quarantine(key)
            self.misses += 1
            return None
        if not isinstance(payload, dict) or payload.get("v") != SCHEMA_VERSION:
            self.quarantine(key)
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: dict) -> bool:
        """Atomically write ``payload`` (plus the schema version); returns
        whether the entry was written.  Cache writes are best-effort: a
        read-only or full disk never fails the analysis."""
        payload = dict(payload, v=SCHEMA_VERSION)
        path = self._path(key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, separators=(",", ":"))
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            return False
        return True

    def entries(self) -> list[tuple[str, float, int]]:
        """Every entry as ``(path, mtime, size)``.  Unstatable files
        (racing deletion by another daemon's gc) are skipped."""
        found: list[tuple[str, float, int]] = []
        try:
            shards = os.listdir(self.root)
        except OSError:
            return found
        for shard in shards:
            shard_dir = os.path.join(self.root, shard)
            try:
                names = os.listdir(shard_dir)
            except OSError:
                continue
            for name in names:
                if not name.endswith(".json"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    info = os.stat(path)
                except OSError:
                    continue
                found.append((path, info.st_mtime, info.st_size))
        return found

    def gc(self, max_bytes: int) -> tuple[int, int]:
        """Prune the cache down to ``max_bytes``: drop abandoned
        ``.tmp`` files (a writer that died mid-``put``), then evict
        least-recently-*written* entries (mtime LRU — reads never touch
        mtimes, so eviction order is write order) until the remainder
        fits.  Returns ``(entries removed, bytes remaining)``.  All
        removals are best-effort: concurrent gc runs on a shared mount
        race benignly."""
        removed = 0
        try:
            shards = os.listdir(self.root)
        except OSError:
            return (0, 0)
        for shard in shards:
            shard_dir = os.path.join(self.root, shard)
            try:
                names = os.listdir(shard_dir)
            except OSError:
                continue
            for name in names:
                if name.endswith(".tmp"):
                    try:
                        os.unlink(os.path.join(shard_dir, name))
                    except OSError:
                        pass
        found = sorted(self.entries(), key=lambda entry: (entry[1], entry[0]))
        total = sum(size for _, _, size in found)
        for path, _, size in found:
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            removed += 1
        return (removed, total)

    def __len__(self) -> int:
        count = 0
        try:
            shards = os.listdir(self.root)
        except OSError:
            return 0
        for shard in shards:
            try:
                count += sum(
                    name.endswith(".json")
                    for name in os.listdir(os.path.join(self.root, shard))
                )
            except OSError:
                continue
        return count
