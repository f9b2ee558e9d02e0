"""Three-valued verdicts, coverage accounting, and their serialization.

The lattice: ``leak`` (a confirmed witness) ⊐ ``unknown`` (unconfirmed
witnesses, or degraded coverage) ⊐ ``safe`` (no witnesses AND full
coverage).  Degradation may only move a verdict toward ``unknown``.
"""

import json

import pytest

from repro.clou.report import ClouWitness, FunctionReport, ModuleReport, \
    NodeRef
from repro.clou.serialize import function_report_dict, \
    function_report_from_dict, witness_dict, witness_from_dict
from repro.lcm.taxonomy import TransmitterClass


def _witness(confirmed=True, index=0,
             klass=TransmitterClass.UNIVERSAL_DATA) -> ClouWitness:
    ref = NodeRef(block="entry", index=index, text="load %p")
    return ClouWitness(engine="pht", klass=klass, transmit=ref,
                       primitive=NodeRef(block="entry", index=9,
                                         text="br %c"),
                       confirmed=confirmed)


class TestVerdictLattice:
    def test_confirmed_witness_is_leak(self):
        report = FunctionReport(function="f", engine="pht",
                                witnesses=[_witness(confirmed=True)])
        assert report.verdict == "leak"
        assert report.complete

    def test_unconfirmed_witnesses_alone_are_unknown(self):
        report = FunctionReport(function="f", engine="pht",
                                witnesses=[_witness(confirmed=False)],
                                undecided=1)
        assert report.verdict == "unknown"
        assert not report.complete

    def test_no_witnesses_full_coverage_is_safe(self):
        report = FunctionReport(function="f", engine="pht", candidates=4)
        assert report.verdict == "safe"
        assert report.complete

    @pytest.mark.parametrize("degradation", [
        {"skipped": 3},
        {"undecided": 1},
        {"timed_out": True},
        {"error": "worker process died"},
    ])
    def test_degraded_empty_report_is_unknown_not_safe(self, degradation):
        report = FunctionReport(function="f", engine="pht", **degradation)
        assert report.verdict == "unknown"
        assert not report.complete

    def test_confirmed_leak_survives_degradation(self):
        # Incomplete coverage never demotes an actual finding.
        report = FunctionReport(function="f", engine="pht",
                                witnesses=[_witness(confirmed=True)],
                                skipped=10, undecided=2)
        assert report.verdict == "leak"
        assert not report.complete

    def test_module_verdict_aggregates(self):
        leak = FunctionReport(function="a", engine="pht",
                              witnesses=[_witness()])
        unknown = FunctionReport(function="b", engine="pht", skipped=1)
        safe = FunctionReport(function="c", engine="pht")
        assert ModuleReport(name="m", engine="pht",
                            functions=[safe]).verdict == "safe"
        assert ModuleReport(name="m", engine="pht",
                            functions=[safe, unknown]).verdict == "unknown"
        assert ModuleReport(name="m", engine="pht",
                            functions=[safe, unknown, leak]).verdict \
            == "leak"


class TestCoverageAccounting:
    def test_coverage_section_shape(self):
        report = FunctionReport(function="f", engine="pht", candidates=7,
                                pruned=2, skipped=3, undecided=1)
        assert report.coverage() == {
            "examined": 7,
            "pruned": 2,
            "skipped_by_budget": 3,
            "undecided": 1,
        }

    def test_summary_marks_incomplete(self):
        report = FunctionReport(function="f", engine="pht", skipped=3,
                                undecided=1)
        assert "INCOMPLETE" in report.summary()
        assert "skipped=3" in report.summary()
        clean = FunctionReport(function="f", engine="pht", candidates=1)
        assert "INCOMPLETE" not in clean.summary()

    def test_transmitters_prefer_confirmed_duplicates(self):
        unconfirmed = _witness(confirmed=False)
        confirmed = _witness(confirmed=True)
        report = FunctionReport(function="f", engine="pht",
                                witnesses=[unconfirmed, confirmed])
        [kept] = report.transmitters()
        assert kept.confirmed
        assert report.verdict == "leak"


class TestSerialization:
    def test_confirmed_flag_round_trips(self):
        for confirmed in (True, False):
            data = witness_dict(_witness(confirmed=confirmed))
            assert data["confirmed"] is confirmed
            assert witness_from_dict(data).confirmed is confirmed

    def test_legacy_witness_dict_defaults_to_confirmed(self):
        data = witness_dict(_witness())
        del data["confirmed"]
        assert witness_from_dict(data).confirmed is True

    def test_report_verdict_and_coverage_round_trip(self):
        report = FunctionReport(function="f", engine="pht",
                                witnesses=[_witness(confirmed=False)],
                                candidates=5, pruned=1, skipped=2,
                                undecided=3)
        data = function_report_dict(report, stable=True)
        assert data["verdict"] == "unknown"
        assert data["coverage"]["skipped_by_budget"] == 2
        restored = function_report_from_dict(data)
        assert restored.verdict == report.verdict
        assert restored.coverage() == report.coverage()
        assert restored.complete == report.complete

    def test_round_trip_is_byte_stable(self):
        report = FunctionReport(function="f", engine="pht",
                                witnesses=[_witness(confirmed=False),
                                           _witness(confirmed=True,
                                                    index=3)],
                                candidates=5, skipped=2, undecided=1)
        first = json.dumps(function_report_dict(report, stable=True),
                           sort_keys=True)
        restored = function_report_from_dict(json.loads(first))
        second = json.dumps(function_report_dict(restored, stable=True),
                            sort_keys=True)
        assert first == second
