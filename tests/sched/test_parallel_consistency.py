"""Determinism acceptance tests: parallel execution and caching must be
invisible in the output — byte-identical stable JSON across ``--jobs``
settings and across cached/fresh runs."""

import json
import os
import subprocess
import sys

import pytest

from repro.bench.synthetic import openssl_like_source
from repro.clou import ClouConfig
from repro.clou.serialize import to_json
from repro.sched import AnalysisRequest, ClouSession

pytestmark = pytest.mark.slow

SOURCE = openssl_like_source(n_functions=12, seed=23)
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
HMAC = os.path.join(ROOT, "src", "repro", "bench", "corpus", "crypto",
                    "hmac.c")
CONFIG = ClouConfig(timeout_seconds=60.0)


class TestJobsInvariance:
    def test_byte_identical_json_jobs_1_vs_4(self):
        serial = ClouSession(config=CONFIG, jobs=1, cache=False).analyze(AnalysisRequest.analyze(
            SOURCE, engine="pht", name="corpus"))
        parallel = ClouSession(config=CONFIG, jobs=4, cache=False).analyze(AnalysisRequest.analyze(
            SOURCE, engine="pht", name="corpus"))
        assert to_json(serial, stable=True) == to_json(parallel, stable=True)

    def test_byte_identical_json_cached_vs_fresh(self, tmp_path):
        session = ClouSession(config=CONFIG, jobs=2, cache=True,
                              cache_dir=str(tmp_path))
        fresh = session.analyze(AnalysisRequest.analyze(SOURCE, engine="pht", name="corpus"))
        cached = session.analyze(AnalysisRequest.analyze(SOURCE, engine="pht", name="corpus"))
        assert session.stats.cache_hits > 0
        assert to_json(fresh, stable=True) == to_json(cached, stable=True)


class TestCLIAcceptance:
    def _clou(self, tmp_path, source_file, *extra):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "analyze", str(source_file),
             "--json", "--stats", "--cache-dir", str(tmp_path / "cache"),
             *extra],
            capture_output=True, text=True, env={"PYTHONPATH": "src"},
            cwd=ROOT,
        )

    @pytest.fixture()
    def source_file(self, tmp_path):
        path = tmp_path / "corpus.c"
        path.write_text(SOURCE)
        return path

    def test_jobs4_matches_jobs1_and_recache_hits(self, tmp_path,
                                                  source_file):
        serial = self._clou(tmp_path, source_file, "--jobs", "1")
        parallel = self._clou(tmp_path, source_file, "--jobs", "4")
        assert serial.returncode == parallel.returncode
        assert serial.stdout == parallel.stdout  # byte-identical --json
        json.loads(serial.stdout)  # valid JSON

        # The second run hit the cache for every item (> 90% required).
        stats_line = parallel.stderr.strip().splitlines()[-1]
        assert "hit rate" in stats_line
        assert "100.0% hit rate" in stats_line

    def test_witness_heavy_jobs2_matches_jobs1(self, tmp_path):
        # 443 candidates and 5000 witnesses in one item: the pool path
        # streams a long, witness-bearing checkpoint sequence.
        serial = self._clou(tmp_path, HMAC, "--engine", "pht",
                            "--no-cache", "--jobs", "1")
        parallel = self._clou(tmp_path, HMAC, "--engine", "pht",
                              "--no-cache", "--jobs", "2")
        assert serial.returncode == parallel.returncode == 1
        assert serial.stdout == parallel.stdout
        json.loads(serial.stdout)
