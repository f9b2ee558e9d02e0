"""The content-addressed on-disk result cache."""

import json
import os

from repro.sched import ClouSession, ResultCache, item_cache_key, \
    source_digest
from repro.sched.cache import user_cache_dir
from repro.sched.env import CACHE_DIR_ENV

SOURCE = "uint8_t A[16];\nvoid f(uint64_t y) { A[y & 15] = 0; }\n"


class TestCacheKey:
    def test_deterministic(self):
        a = item_cache_key(kind="analyze", source=SOURCE, function="f",
                           engine="pht", config_key="{}")
        b = item_cache_key(kind="analyze", source=SOURCE, function="f",
                           engine="pht", config_key="{}")
        assert a == b

    def test_sensitive_to_every_component(self):
        base = dict(kind="analyze", source=SOURCE, function="f",
                    engine="pht", config_key="{}")
        key = item_cache_key(**base)
        for change in (dict(source=SOURCE + "\n"), dict(function="g"),
                       dict(engine="stl"), dict(config_key='{"rob":1}'),
                       dict(kind="lint")):
            assert item_cache_key(**{**base, **change}) != key

    def test_lint_key_covers_secrecy_policy(self):
        base = item_cache_key(kind="lint", source=SOURCE)
        assert item_cache_key(kind="lint", source=SOURCE,
                              secrets=("k",)) != base
        assert item_cache_key(kind="lint", source=SOURCE,
                              public=("n",)) != base

    def test_source_digest_stable(self):
        assert source_digest(SOURCE) == source_digest(SOURCE)
        assert source_digest(SOURCE) != source_digest(SOURCE + " ")


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = item_cache_key(kind="analyze", source=SOURCE, function="f",
                             engine="pht", config_key="{}")
        assert cache.get(key) is None
        cache.put(key, {"report": {"function": "f"}})
        entry = cache.get(key)
        assert entry["report"] == {"function": "f"}
        assert len(cache) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = item_cache_key(kind="analyze", source=SOURCE, function="f",
                             engine="pht", config_key="{}")
        cache.put(key, {"report": {}})
        (path,) = list(tmp_path.rglob(f"{key}.json"))
        path.write_text("{ not json")
        assert cache.get(key) is None

    def test_schema_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = item_cache_key(kind="analyze", source=SOURCE, function="f",
                             engine="pht", config_key="{}")
        cache.put(key, {"report": {}})
        (path,) = list(tmp_path.rglob(f"{key}.json"))
        entry = json.loads(path.read_text())
        entry["v"] = -1
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None

    def test_corrupt_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = item_cache_key(kind="analyze", source=SOURCE, function="f",
                             engine="pht", config_key="{}")
        cache.put(key, {"report": {}})
        (path,) = list(tmp_path.rglob(f"{key}.json"))
        path.write_text("{ not json")
        assert cache.get(key) is None
        assert cache.corrupt == 1
        assert not path.exists()  # deleted on detection, not left to rot
        # The next probe is a plain miss, not another corruption.
        assert cache.get(key) is None
        assert cache.corrupt == 1

    def test_schema_mismatch_is_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = item_cache_key(kind="analyze", source=SOURCE, function="f",
                             engine="pht", config_key="{}")
        cache.put(key, {"report": {}})
        (path,) = list(tmp_path.rglob(f"{key}.json"))
        entry = json.loads(path.read_text())
        entry["v"] = -1
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None
        assert cache.corrupt == 1 and not path.exists()

    def test_missing_entry_is_a_plain_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get("00" + "ab" * 31) is None
        assert cache.corrupt == 0 and cache.misses == 1


class TestCacheGC:
    def _fill(self, tmp_path, count, size=100):
        import time

        cache = ResultCache(str(tmp_path))
        keys = []
        for index in range(count):
            key = item_cache_key(kind="analyze", source=f"{SOURCE}{index}",
                                 function="f", engine="pht", config_key="{}")
            cache.put(key, {"report": {"pad": "x" * size}})
            (path,) = list(tmp_path.rglob(f"{key}.json"))
            # Deterministic write order without sleeping: mtimes are the
            # LRU axis, so pin them explicitly.
            stamp = 1_000_000 + index
            os.utime(path, (stamp, stamp))
            keys.append(key)
        return cache, keys

    def test_gc_evicts_least_recently_written_first(self, tmp_path):
        cache, keys = self._fill(tmp_path, 5)
        (path,) = list(tmp_path.rglob(f"{keys[0]}.json"))
        entry_size = path.stat().st_size
        removed, remaining = cache.gc(entry_size * 2)
        assert removed == 3
        assert remaining <= entry_size * 2
        # The two *newest* entries survive.
        assert cache.get(keys[3]) is not None
        assert cache.get(keys[4]) is not None
        assert cache.get(keys[0]) is None

    def test_gc_under_budget_removes_nothing(self, tmp_path):
        cache, keys = self._fill(tmp_path, 3)
        removed, _ = cache.gc(10 * 1024 * 1024)
        assert removed == 0
        assert all(cache.get(key) is not None for key in keys)

    def test_gc_sweeps_abandoned_tmp_files(self, tmp_path):
        cache, keys = self._fill(tmp_path, 1)
        shard = tmp_path / keys[0][:2]
        orphan = shard / "orphan12.tmp"
        orphan.write_text("half a write")
        cache.gc(10 * 1024 * 1024)
        assert not orphan.exists()
        assert cache.get(keys[0]) is not None

    def test_gc_of_missing_root_is_a_noop(self, tmp_path):
        cache = ResultCache(str(tmp_path / "never-created"))
        assert cache.gc(1024) == (0, 0)

    def test_cache_gc_cli(self, tmp_path, capsys):
        import repro.cli as cli

        cache, keys = self._fill(tmp_path, 4, size=2000)
        code = cli.main(["cache", "gc", "--cache-dir", str(tmp_path),
                         "--cache-max-mb",
                         str(2 * 2100 / (1024 * 1024))])
        out = capsys.readouterr().out
        assert code == 0
        assert "clou cache gc" in out
        assert len(cache) == 2

    def test_default_dir_reads_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert ClouSession().cache is None
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert ClouSession().cache.root == str(tmp_path)

    def test_user_cache_dir_honours_xdg(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert user_cache_dir() == os.path.join(str(tmp_path), "repro-clou")
