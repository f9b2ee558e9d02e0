"""repro.sched.env: the one home for REPRO_* environment defaults.

Every accessor must be *total* — malformed values degrade to the
documented default, never raise — because the daemon reads them at
import time."""

from repro.sched.env import (CACHE_DIR_ENV, FAULTS_ENV, JOBS_ENV,
                             SOCKET_ENV, env_cache_dir, env_fault_spec,
                             env_jobs, env_socket)


class TestJobs:
    def test_unset_gives_default(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert env_jobs() == 1
        assert env_jobs(default=4) == 4

    def test_parses_int(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "8")
        assert env_jobs() == 8

    def test_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "0")
        assert env_jobs() == 1
        monkeypatch.setenv(JOBS_ENV, "-3")
        assert env_jobs() == 1

    def test_malformed_degrades_to_default(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "lots")
        assert env_jobs() == 1
        assert env_jobs(default=2) == 2

    def test_whitespace_is_unset(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "   ")
        assert env_jobs(default=3) == 3


class TestCacheDir:
    def test_unset_is_none(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert env_cache_dir() is None

    def test_empty_is_none(self, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, "")
        assert env_cache_dir() is None

    def test_set(self, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, "/tmp/cc")
        assert env_cache_dir() == "/tmp/cc"


class TestFaultSpec:
    def test_unset_is_none(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert env_fault_spec() is None

    def test_set(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "seed=1;crash@worker.item#2")
        assert env_fault_spec() == "seed=1;crash@worker.item#2"


class TestSocket:
    def test_unset_is_none(self, monkeypatch):
        monkeypatch.delenv(SOCKET_ENV, raising=False)
        assert env_socket() is None

    def test_set(self, monkeypatch):
        monkeypatch.setenv(SOCKET_ENV, "/run/clou.sock")
        assert env_socket() == "/run/clou.sock"

