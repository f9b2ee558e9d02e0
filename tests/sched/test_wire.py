"""The versioned wire forms: AnalysisRequest / AnalysisResult /
SessionStats to_dict/from_dict.

These dicts are the daemon protocol's payloads, so the contract is
exact round-tripping (to_dict ∘ from_dict ∘ to_dict is the identity on
the dict form) and loud version mismatches."""

import json

import pytest

from repro.clou import ClouConfig
from repro.sched import (AnalysisRequest, AnalysisResult, ClouSession,
                         REQUEST_SCHEMA_VERSION, SessionStats)

SPECTRE_V1 = """
uint8_t A[16];
uint8_t B[256 * 512];
uint64_t size_A = 16;
uint64_t tmp;

void victim(uint64_t y) {
    if (y < size_A) {
        uint8_t x = A[y];
        tmp &= B[x * 512];
    }
}
"""


class TestRequestWire:
    def test_analyze_round_trip(self):
        request = AnalysisRequest.analyze(
            SPECTRE_V1, engine="stl", name="v.c", functions=("victim",),
            config=ClouConfig(rob_size=64))
        again = AnalysisRequest.from_dict(request.to_dict())
        assert again == request
        assert again.to_dict() == request.to_dict()

    def test_repair_and_lint_round_trip(self):
        repair = AnalysisRequest.repair(SPECTRE_V1, strategy="protect")
        lint = AnalysisRequest.lint(SPECTRE_V1, secrets=("key",),
                                    public=("len",))
        assert AnalysisRequest.from_dict(repair.to_dict()) == repair
        assert AnalysisRequest.from_dict(lint.to_dict()) == lint

    def test_dict_is_json_clean(self):
        request = AnalysisRequest.analyze(SPECTRE_V1,
                                          config=ClouConfig(rob_size=64))
        assert json.loads(json.dumps(request.to_dict())) == \
            request.to_dict()

    def test_carries_version(self):
        assert AnalysisRequest.analyze("int x;").to_dict()["v"] == \
            REQUEST_SCHEMA_VERSION

    def test_version_mismatch_raises(self):
        data = AnalysisRequest.analyze("int x;").to_dict()
        data["v"] = 99
        with pytest.raises(ValueError, match="schema"):
            AnalysisRequest.from_dict(data)

    def test_unknown_kind_raises(self):
        data = AnalysisRequest.analyze("int x;").to_dict()
        data["kind"] = "transmogrify"
        with pytest.raises(ValueError, match="kind"):
            AnalysisRequest.from_dict(data)


class TestResultWire:
    def test_round_trip_preserves_the_stable_report(self):
        session = ClouSession(jobs=1, cache=False)
        [result] = session.run(
            [AnalysisRequest.analyze(SPECTRE_V1, engine="pht", name="v.c")])
        wire = result.to_dict()
        assert json.loads(json.dumps(wire)) == wire
        again = AnalysisResult.from_dict(wire)
        assert again.to_dict() == wire  # dict-form fixed point
        assert again.report.leaky == result.report.leaky
        assert again.stats.cache_misses == result.stats.cache_misses

    def test_error_result_round_trip(self):
        session = ClouSession(jobs=1, cache=False)
        [result] = session.run([AnalysisRequest.analyze("void f( {")])
        assert result.error is not None
        again = AnalysisResult.from_dict(result.to_dict())
        assert again.error == result.error
        assert not again.ok
        assert again.exception is None  # exceptions never cross the wire


class TestStatsWire:
    def test_round_trip(self):
        stats = SessionStats(jobs=2, items=5, cache_hits=3, cache_misses=2,
                             skipped=7, work_seconds=1.25)
        again = SessionStats.from_dict(stats.to_dict())
        assert again.to_dict() == stats.to_dict()

    def test_unknown_keys_are_ignored(self):
        data = SessionStats().to_dict()
        data["keys_from_the_future"] = 1
        SessionStats.from_dict(data)  # must not raise

    def test_version_mismatch_raises(self):
        with pytest.raises(ValueError, match="schema"):
            SessionStats.from_dict({"v": 99})

    def test_per_item_detail_stays_local(self):
        stats = SessionStats(items=1)
        assert "per_item" not in stats.to_dict()
        assert SessionStats.from_dict(stats.to_dict()).per_item == []
