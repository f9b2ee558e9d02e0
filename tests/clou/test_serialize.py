"""JSON serialization of reports + the new CLI surfaces."""

import json

import pytest

from repro.cli import main
from repro.sched import AnalysisRequest, ClouSession
from repro.bench.suites import all_cases
from repro.clou.serialize import module_report_dict, to_json

_SESSION = ClouSession(jobs=1, cache=False)

SOURCE = """
uint8_t A[16];
uint8_t B[256 * 512];
uint64_t size_A = 16;
uint64_t tmp;
void victim(uint64_t y) {
    if (y < size_A) { tmp &= B[A[y] * 512]; }
}
"""


@pytest.fixture(scope="module")
def report():
    return _SESSION.analyze(AnalysisRequest.analyze(SOURCE, engine="pht", name="victim"))


class TestJson:
    def test_round_trips_through_json(self, report):
        parsed = json.loads(to_json(report))
        assert parsed["leaky"] is True
        assert parsed["totals"]["UDT"] == 1
        assert parsed["functions"][0]["function"] == "victim"

    def test_witness_fields(self, report):
        parsed = module_report_dict(report)
        witnesses = parsed["functions"][0]["transmitters"]
        udt = next(w for w in witnesses if w["class"] == "UDT")
        assert udt["transient_access"] is True
        assert udt["index"]["block"]
        assert udt["primitive"]["text"].startswith("br")

    def test_provenance_serialized(self, report):
        parsed = module_report_dict(report)
        witnesses = parsed["functions"][0]["transmitters"]
        assert any(
            "global:B" in (w["transmit"]["provenance"] or "")
            for w in witnesses
        )


class TestCliSurfaces:
    def test_json_flag(self, tmp_path, capsys):
        path = tmp_path / "v.c"
        path.write_text(SOURCE)
        code = main(["analyze", str(path), "--json"])
        assert code == 1
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["leaky"] is True

    def test_dot_flag(self, tmp_path, capsys):
        path = tmp_path / "v.c"
        path.write_text(SOURCE)
        out_dir = tmp_path / "graphs"
        main(["analyze", str(path), "--dot", str(out_dir)])
        dots = list(out_dir.glob("*.dot"))
        assert dots
        assert "digraph" in dots[0].read_text()

    def test_alias_prediction_flag(self, tmp_path):
        path = tmp_path / "v.c"
        path.write_text(SOURCE)
        # PSF assumption applies to STL; the command must run cleanly.
        code = main(["analyze", str(path), "--engine", "stl",
                     "--alias-prediction"])
        assert code in (0, 1)

    def test_alias_prediction_widens_bypass(self):
        """With PSF hardware assumed, loads may forward from provably
        different addresses — STL can only find more."""
        from repro.clou import ClouConfig

        source = """
uint8_t slot_a;
uint8_t slot_b;
uint8_t table[4096];
uint8_t tmp;
void f(uint8_t v) {
    slot_a = v;
    tmp &= table[slot_b * 16];
}
"""
        plain = _SESSION.analyze(AnalysisRequest.analyze(source, engine="stl",
                               config=ClouConfig()))
        psf = _SESSION.analyze(AnalysisRequest.analyze(source, engine="stl",
                             config=ClouConfig(assume_alias_prediction=True)))
        plain_count = sum(len(f.witnesses) for f in plain.functions)
        psf_count = sum(len(f.witnesses) for f in psf.functions)
        assert psf_count >= plain_count
        assert psf.leaky


class TestStableJson:
    def test_stable_json_is_byte_identical_across_runs(self):
        one = to_json(_SESSION.analyze(AnalysisRequest.analyze(SOURCE, engine="pht", name="victim")),
                      stable=True)
        two = to_json(_SESSION.analyze(AnalysisRequest.analyze(SOURCE, engine="pht", name="victim")),
                      stable=True)
        assert one == two

    def test_stable_mode_omits_timings(self, report):
        parsed = json.loads(to_json(report, stable=True))
        assert "elapsed_seconds" not in parsed["functions"][0]
        # The default mode keeps them for human consumption.
        timed = json.loads(to_json(report))
        assert "elapsed_seconds" in timed["functions"][0]

    def test_candidate_and_pruned_counters_serialized(self, report):
        parsed = module_report_dict(report)
        function = parsed["functions"][0]
        assert "candidates" in function and "pruned" in function
        assert function["candidates"] >= 1

    def test_transmitters_are_deterministically_ordered(self, report):
        witnesses = module_report_dict(report)["functions"][0]["transmitters"]
        keys = [(w["transmit"]["block"], w["transmit"]["index"])
                for w in witnesses]
        assert keys == sorted(keys)

    def test_cli_json_is_stable(self, tmp_path, capsys):
        path = tmp_path / "v.c"
        path.write_text(SOURCE)
        main(["analyze", str(path), "--json"])
        one = capsys.readouterr().out
        main(["analyze", str(path), "--json"])
        two = capsys.readouterr().out
        assert one == two


def _unshared(data):
    """A report decoded with one NodeRef per occurrence (the decoder
    before equal references were shared)."""
    from repro.clou.report import FunctionReport, ModuleReport
    from repro.clou.serialize import function_report_from_dict, \
        witness_from_dict

    functions = []
    for entry in data["functions"]:
        report = function_report_from_dict(entry)
        report.witnesses = [witness_from_dict(w)
                            for w in entry["transmitters"]]
        functions.append(report)
    return ModuleReport(name=data["name"], engine=data["engine"],
                        functions=functions)


def _refs(report):
    return [ref for witness in report.witnesses
            for ref in (witness.transmit, witness.primitive, witness.access,
                        witness.index, witness.window_start)
            if ref is not None]


class TestSharedNodeRefs:
    """``function_report_from_dict`` hands out one NodeRef per distinct
    value; the decoded reports and their stable JSON are unchanged."""

    CASES = [(case, engine) for case in all_cases()
             for engine in case.engines]

    @pytest.mark.parametrize(
        "case,engine", CASES,
        ids=[f"{case.name}-{engine}" for case, engine in CASES])
    def test_decoded_report_is_unchanged(self, case, engine):
        from repro.clou.serialize import module_report_from_dict

        report = _SESSION.analyze(AnalysisRequest.analyze(
            case.source, engine=engine, name=case.name))
        stable = to_json(report, stable=True)
        data = json.loads(stable)
        decoded = module_report_from_dict(data)
        reference = _unshared(data)
        assert decoded.functions == reference.functions
        assert to_json(decoded, stable=True) == stable
        decoded.config = reference.config = None
        assert to_json(decoded, stable=True) == \
            to_json(reference, stable=True)
        for function in decoded.functions:
            refs = _refs(function)
            assert len({id(ref) for ref in refs}) == len(set(refs))
