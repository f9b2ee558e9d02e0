"""Pipeline-level behaviour through :class:`ClouSession`: error
handling, multi-function modules, engine dispatch, and the request-only
signatures of the single-request calls."""

import pytest

from repro.clou import ClouConfig, build_acfg, repair
from repro.errors import AnalysisError, ParseError
from repro.minic import compile_c
from repro.sched import AnalysisRequest, ClouSession

MULTI = """
uint8_t A[16];
uint8_t B[4096];
uint64_t n;
uint8_t t;

static uint8_t helper(uint64_t i) { return A[i & 15]; }

void leaky(uint64_t y) {
    if (y < n) { t &= B[A[y] * 16]; }
}

void clean(uint64_t y) {
    t &= helper(y);
}
"""


def _session() -> ClouSession:
    return ClouSession(jobs=1, cache=False)


class TestDriver:
    def test_each_public_function_analyzed(self):
        report = _session().analyze(
            AnalysisRequest.analyze(MULTI, engine="pht", name="multi"))
        names = {f.function for f in report.functions}
        assert names == {"leaky", "clean"}  # helper is static (private)

    def test_per_function_verdicts(self):
        report = _session().analyze(
            AnalysisRequest.analyze(MULTI, engine="pht", name="multi"))
        by_name = {f.function: f for f in report.functions}
        assert by_name["leaky"].leaky
        assert not by_name["clean"].leaky

    def test_parse_errors_propagate(self):
        with pytest.raises(ParseError):
            _session().analyze(
                AnalysisRequest.analyze("void f( {", engine="pht"))

    def test_analysis_error_captured_per_function(self):
        # Unknown function: surfaced as a report error, not an exception.
        report = _session().analyze(AnalysisRequest.analyze(
            MULTI, engine="pht", functions=("nonexistent",)))
        [function_report] = report.functions
        assert function_report.error

    def test_module_report_aggregation(self):
        report = _session().analyze(
            AnalysisRequest.analyze(MULTI, engine="pht"))
        assert report.leaky
        assert report.elapsed >= 0
        assert "functions" in report.summary()

    def test_config_threading(self):
        config = ClouConfig(classes=("udt",), rob_size=100)
        report = _session().analyze(
            AnalysisRequest.analyze(MULTI, engine="pht", config=config))
        from repro.lcm.taxonomy import TransmitterClass as TC

        assert report.total(TC.CONTROL) == 0  # CT search disabled

    def test_empty_module(self):
        report = _session().analyze(
            AnalysisRequest.analyze("uint8_t g;", engine="pht"))
        assert not report.functions
        assert not report.leaky


class TestRequestOnlySignatures:
    """The single-request calls take an :class:`AnalysisRequest` and
    nothing else."""

    @pytest.mark.parametrize("kind", ["analyze", "repair", "lint"])
    def test_source_text_is_a_type_error(self, kind):
        with pytest.raises(TypeError, match=f"AnalysisRequest.{kind}"):
            getattr(_session(), kind)(MULTI)

    def test_keywords_are_a_type_error(self):
        with pytest.raises(TypeError):
            _session().analyze(AnalysisRequest.analyze(MULTI),
                               engine="stl")

    def test_wrong_kind_is_an_analysis_error(self):
        with pytest.raises(AnalysisError, match="got a 'lint' request"):
            _session().analyze(AnalysisRequest.lint(MULTI))


class TestRepair:
    def test_repair_covers_public_functions(self):
        results = _session().repair(
            AnalysisRequest.repair(MULTI, engine="pht", name="multi"))
        assert {r.function for r in results} == {"leaky", "clean"}
        assert all(r.fully_repaired for r in results)

    def test_repair_one_function(self):
        # One function of a compiled module: repair its A-CFG directly.
        acfg = build_acfg(compile_c(MULTI), "leaky")
        result = repair(acfg.function, "pht", ClouConfig())
        assert result.function == "leaky"
        assert result.fences          # the v1 gadget needs a fence
        assert result.fully_repaired

    def test_one_function_repair_matches_session(self):
        acfg = build_acfg(compile_c(MULTI), "leaky")
        direct = repair(acfg.function, "pht", ClouConfig())
        [via_session] = _session().repair(AnalysisRequest.repair(
            MULTI, engine="pht", functions=("leaky",)))
        assert (direct.fences, direct.fully_repaired) == \
            (via_session.fences, via_session.fully_repaired)
