"""The ClouSession API: request expansion, caching, S-AEG sharing,
stats aggregation, and error capture."""

import pytest

from repro.clou import ClouConfig
from repro.clou.serialize import to_json
from repro.errors import AnalysisError, ParseError
from repro.sched import AnalysisRequest, ClouSession
from repro.sched import worker

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

BRANCHY = """
uint8_t key[16];
uint8_t out;

void compare(uint64_t i, uint64_t guess) {
    if (key[i & 15] == guess) {
        out = 1;
    }
}
"""


def _session(**kwargs):
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("cache", False)
    return ClouSession(**kwargs)


class TestAnalyze:
    def test_analyze_finds_the_gadget(self):
        report = _session().analyze(AnalysisRequest.analyze(SPECTRE_V1, engine="pht", name="v1"))
        assert report.leaky
        assert report.functions[0].function == "victim"

    def test_function_subset(self):
        report = _session().analyze(AnalysisRequest.analyze(SPECTRE_V1, engine="pht",
                                    functions=("victim",)))
        assert [f.function for f in report.functions] == ["victim"]

    def test_parse_error_raises(self):
        with pytest.raises(ParseError):
            _session().analyze(AnalysisRequest.analyze("void f( {", engine="pht"))

    def test_unknown_engine_raises(self):
        with pytest.raises(AnalysisError, match="unknown engine"):
            _session().analyze(AnalysisRequest.analyze(SPECTRE_V1, engine="nope"))

    def test_unknown_kind_captured_in_batch(self):
        [result] = _session().run(
            [AnalysisRequest(source=SPECTRE_V1, kind="frobnicate")])
        assert not result.ok
        assert "unknown request kind" in result.error

    def test_batch_isolates_request_failures(self):
        results = _session().run([
            AnalysisRequest(source="void f( {"),       # parse error
            AnalysisRequest(source=SPECTRE_V1),         # fine
        ])
        assert not results[0].ok and results[0].report is None
        assert results[1].ok and results[1].report.leaky

    def test_per_request_config_override(self):
        session = _session(config=ClouConfig(classes=("udt",)))
        default = session.analyze(AnalysisRequest.analyze(SPECTRE_V1, engine="pht"))
        override = session.analyze(AnalysisRequest.analyze(
            SPECTRE_V1, engine="pht", config=ClouConfig(classes=("ct",))))
        from repro.lcm.taxonomy import TransmitterClass as TC

        assert default.total(TC.UNIVERSAL_DATA) >= 1
        assert override.total(TC.UNIVERSAL_DATA) == 0

    def test_report_carries_stats(self):
        report = _session().analyze(AnalysisRequest.analyze(SPECTRE_V1, engine="pht"))
        assert report.stats is not None
        assert report.stats.items == 1
        assert report.stats.per_item[0].kind == "analyze"

    def test_running_total_keeps_no_per_item_records(self):
        # The session total lives as long as a daemon: it sums counters
        # and must not keep one record per item it has ever run.
        session = _session()
        for _ in range(3):
            [result] = session.run([AnalysisRequest.analyze(
                SPECTRE_V1, engine="pht")])
            assert len(result.stats.per_item) == 1
        assert session.stats.items == 3
        assert session.stats.per_item == []

    def test_stats_never_in_stable_json(self):
        session = _session()
        report = session.analyze(AnalysisRequest.analyze(SPECTRE_V1, engine="pht"))
        assert "stats" not in to_json(report, stable=True)


class TestRepairAndLint:
    def test_repair(self):
        results = _session().repair(AnalysisRequest.repair(SPECTRE_V1, engine="pht"))
        (result,) = results
        assert result.fully_repaired
        assert len(result.fences) == 1

    def test_lint(self):
        report = _session().lint(AnalysisRequest.lint(BRANCHY, name="branchy"))
        assert report.findings  # secret-dependent branch

    def test_lint_parse_error(self):
        with pytest.raises(ParseError):
            _session().lint(AnalysisRequest.lint("void f( {"))


class TestCaching:
    def test_second_run_hits(self, tmp_path):
        session = _session(cache=True, cache_dir=str(tmp_path))
        first = session.analyze(AnalysisRequest.analyze(SPECTRE_V1, engine="pht", name="v1"))
        assert session.stats.cache_misses == 1
        second = session.analyze(AnalysisRequest.analyze(SPECTRE_V1, engine="pht", name="v1"))
        assert session.stats.cache_hits == 1
        assert to_json(first, stable=True) == to_json(second, stable=True)

    def test_cache_shared_across_sessions(self, tmp_path):
        _session(cache=True, cache_dir=str(tmp_path)).analyze(
            AnalysisRequest.analyze(SPECTRE_V1, engine="pht"))
        session = _session(cache=True, cache_dir=str(tmp_path))
        session.analyze(AnalysisRequest.analyze(SPECTRE_V1, engine="pht"))
        assert session.stats.cache_hits == 1
        assert session.stats.cache_misses == 0

    def test_config_change_misses(self, tmp_path):
        session = _session(cache=True, cache_dir=str(tmp_path))
        session.analyze(AnalysisRequest.analyze(SPECTRE_V1, engine="pht"))
        session.analyze(AnalysisRequest.analyze(SPECTRE_V1, engine="pht",
                        config=ClouConfig(rob_size=100)))
        assert session.stats.cache_hits == 0
        assert session.stats.cache_misses == 2

    def test_lint_cached(self, tmp_path):
        session = _session(cache=True, cache_dir=str(tmp_path))
        first = session.lint(AnalysisRequest.lint(BRANCHY, name="branchy"))
        second = session.lint(AnalysisRequest.lint(BRANCHY, name="branchy"))
        assert session.stats.cache_hits == 1
        assert len(first.findings) == len(second.findings)

    def test_repair_never_cached(self, tmp_path):
        session = _session(cache=True, cache_dir=str(tmp_path))
        session.repair(AnalysisRequest.repair(SPECTRE_V1, engine="pht"))
        session.repair(AnalysisRequest.repair(SPECTRE_V1, engine="pht"))
        assert session.stats.cache_hits == 0


TWO_VICTIMS = """
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

uint64_t bystander(uint64_t y) {
    return y * 2;
}
"""


class TestIncrementalCaching:
    """Function-granular cache keys: an edit re-analyzes only what it
    touched (the ``clou serve`` warm-path contract)."""

    def test_editing_one_function_only_misses_that_function(self, tmp_path):
        session = _session(cache=True, cache_dir=str(tmp_path))
        session.analyze(AnalysisRequest.analyze(TWO_VICTIMS, engine="pht"))
        assert session.stats.cache_misses == 2
        edited = TWO_VICTIMS.replace("y * 2", "y * 3")
        session.analyze(AnalysisRequest.analyze(edited, engine="pht"))
        assert session.stats.cache_hits == 1    # victim untouched
        assert session.stats.cache_misses == 3  # bystander re-analyzed

    def test_whitespace_and_comment_edits_hit_everywhere(self, tmp_path):
        session = _session(cache=True, cache_dir=str(tmp_path))
        session.analyze(AnalysisRequest.analyze(TWO_VICTIMS, engine="pht"))
        reformatted = TWO_VICTIMS.replace(
            "void victim", "/* the gadget */\n\nvoid  victim")
        session.analyze(AnalysisRequest.analyze(reformatted, engine="pht"))
        assert session.stats.cache_hits == 2    # 100% warm
        assert session.stats.cache_misses == 2

    def test_preamble_edit_misses_everywhere(self, tmp_path):
        session = _session(cache=True, cache_dir=str(tmp_path))
        session.analyze(AnalysisRequest.analyze(TWO_VICTIMS, engine="pht"))
        edited = TWO_VICTIMS.replace("size_A = 16", "size_A = 8")
        session.analyze(AnalysisRequest.analyze(edited, engine="pht"))
        assert session.stats.cache_hits == 0
        assert session.stats.cache_misses == 4

    def test_edit_report_matches_fresh_analysis(self, tmp_path):
        edited = TWO_VICTIMS.replace("y * 2", "y * 3")
        warm = _session(cache=True, cache_dir=str(tmp_path))
        warm.analyze(AnalysisRequest.analyze(TWO_VICTIMS, engine="pht"))
        incremental = warm.analyze(AnalysisRequest.analyze(edited,
                                                           engine="pht"))
        fresh = _session().analyze(AnalysisRequest.analyze(edited,
                                                           engine="pht"))
        assert to_json(incremental, stable=True) == to_json(fresh,
                                                            stable=True)


class TestSAEGSharing:
    def test_one_saeg_across_engines(self):
        """The bugfix: within one session the S-AEG for a function is
        built once and shared by both engines."""
        worker.clear_caches()
        session = _session()
        pht = session.analyze(AnalysisRequest.analyze(SPECTRE_V1, engine="pht", name="share"))
        stl = session.analyze(AnalysisRequest.analyze(SPECTRE_V1, engine="stl", name="share"))
        info = worker.saeg_cache_info()
        assert info["misses"] == 1   # built once...
        assert info["hits"] == 1     # ...reused by the second engine
        # ...and sharing must not change either engine's report.
        assert pht.leaky
        fresh = ClouSession(jobs=1, cache=False)
        worker.clear_caches()
        assert to_json(fresh.analyze(AnalysisRequest.analyze(
                           SPECTRE_V1, engine="stl", name="share")),
                       stable=True) == to_json(stl, stable=True)


class TestConfigSerialization:
    def test_roundtrip(self):
        config = ClouConfig(rob_size=64, classes=("udt", "ct"),
                            timeout_seconds=2.5)
        assert ClouConfig.from_dict(config.to_dict()) == config

    def test_hashable(self):
        assert hash(ClouConfig()) == hash(ClouConfig())
        assert {ClouConfig(): "x"}[ClouConfig()] == "x"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ClouConfig.from_dict({"not_a_field": 1})

    def test_cache_key_canonical(self):
        a = ClouConfig(rob_size=64)
        b = ClouConfig(rob_size=64)
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != ClouConfig(rob_size=65).cache_key()

    def test_config_in_json_roundtrip(self):
        from repro.clou.serialize import module_report_from_dict, \
            module_report_dict

        session = _session(config=ClouConfig(rob_size=64))
        report = session.analyze(AnalysisRequest.analyze(SPECTRE_V1, engine="pht", name="v1"))
        data = module_report_dict(report, stable=True)
        assert data["config"]["rob_size"] == 64
        rebuilt = module_report_from_dict(data)
        assert rebuilt.config == ClouConfig(rob_size=64)
