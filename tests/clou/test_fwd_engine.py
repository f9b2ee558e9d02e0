"""Clou-FWD: the Spectre v1.1 / NEW detection engine (§6.1).

Covers the paper's acceptance shape: every FWD and NEW litmus program
gets a LEAK verdict with the intended transmitter classes, fence repair
breaks every witness with at most 2 fences per program, and the engine
honors the determinism contracts (jobs-invariance, cache-invariance,
checkpoint/resume) the rest of the stack guarantees.
"""

from functools import reduce

import pytest

from repro.bench.suites import by_name, litmus_fwd, litmus_new
from repro.clou import ClouConfig
from repro.clou.acfg import build_acfg
from repro.clou.aeg import SAEG
from repro.clou.engine import ENGINES
from repro.clou.serialize import function_report_dict, to_json
from repro.minic import compile_c
from repro.sched import AnalysisRequest, ClouSession
from repro.sched.scheduler import _fold

#: program -> transmitter classes the fwd engine finds (§6.1's table):
#: fwd04 leaks only through a corrupted branch condition, fwd05 through
#: both the guard and the guarded access, new02 through a non-universal
#: data forward (the secret is transiently computed, not OOB-addressed).
EXPECTED_CLASSES = {
    "fwd01": {"UDT"},
    "fwd02": {"UDT"},
    "fwd03": {"UDT"},
    "fwd04": {"UCT"},
    "fwd05": {"UDT", "UCT"},
    "new01": {"CT", "UDT"},
    "new02": {"CT", "DT"},
}

ALL_PROGRAMS = sorted(EXPECTED_CLASSES)


def _session(**kwargs):
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("cache", False)
    return ClouSession(ClouConfig(), **kwargs)


def _analyze(name, **kwargs):
    case = by_name(name)
    return _session(**kwargs).analyze(AnalysisRequest.analyze(case.source, engine="fwd",
                                      name=case.name))


class TestDetection:
    @pytest.mark.parametrize("name", ALL_PROGRAMS)
    def test_every_program_leaks_with_intended_classes(self, name):
        report = _analyze(name)
        assert report.leaky, name
        found = {w.klass.value
                 for f in report.functions for w in f.transmitters()}
        assert found == EXPECTED_CLASSES[name]

    @pytest.mark.parametrize("name", ALL_PROGRAMS)
    def test_verdict_is_leak_with_full_coverage(self, name):
        report = _analyze(name)
        for function in report.functions:
            assert function.verdict == "leak"
            assert function.complete

    def test_fwd_witnesses_record_the_corrupting_store(self):
        report = _analyze("fwd01")
        witnesses = [w for f in report.functions
                     for w in f.transmitters()]
        assert witnesses
        for witness in witnesses:
            assert witness.engine == "fwd"
            assert witness.window_start is not None  # the corrupting store
            assert witness.transient_access

    def test_suite_registry_runs_fwd_engine(self):
        for case in [*litmus_fwd(), *litmus_new()]:
            assert "fwd" in case.engines


class TestRepair:
    @pytest.mark.parametrize("name", ALL_PROGRAMS)
    def test_at_most_two_fences_and_safe_after(self, name):
        case = by_name(name)
        results = _session().repair(AnalysisRequest.repair(case.source, engine="fwd",
                                    name=case.name))
        assert results
        for result in results:
            assert result.fully_repaired, result.summary()
            assert len(result.fences) <= 2, result.fences
            assert not result.after.leaky
            assert result.after.verdict == "safe"

    def test_two_fence_programs_match_the_paper(self):
        # §6.1: FWD/NEW programs whose forwards land in two different
        # windows need two fences; single-window programs need one.
        fence_counts = {}
        for name in ALL_PROGRAMS:
            case = by_name(name)
            results = _session().repair(AnalysisRequest.repair(case.source, engine="fwd",
                                        name=case.name))
            fence_counts[name] = sum(len(r.fences) for r in results)
        assert fence_counts["fwd01"] == 1
        assert fence_counts["fwd05"] == 2
        assert fence_counts["new01"] == 2
        assert fence_counts["new02"] == 2

    def test_repaired_source_stays_safe_under_reanalysis(self):
        # The repair result's `after` report *is* a fresh re-analysis of
        # the fenced function; assert the invariant explicitly for the
        # chained program where a naive transmit-window fence would
        # leave the second forward alive.
        case = by_name("fwd03")
        (result,) = _session().repair(AnalysisRequest.repair(case.source, engine="fwd",
                                      name=case.name))
        assert result.before.leaky
        assert not result.after.leaky


class TestDeterminism:
    @pytest.mark.parametrize("name", ["fwd03", "fwd05", "new01"])
    def test_json_byte_identical_across_jobs(self, name):
        case = by_name(name)
        serial = _session(jobs=1).analyze(AnalysisRequest.analyze(case.source, engine="fwd",
                                          name=case.name))
        parallel = _session(jobs=2).analyze(AnalysisRequest.analyze(case.source, engine="fwd",
                                            name=case.name))
        assert to_json(serial, stable=True) == to_json(parallel, stable=True)

    def test_json_byte_identical_cached_vs_fresh(self, tmp_path):
        case = by_name("fwd05")
        cache_dir = str(tmp_path / "cache")

        def run():
            session = ClouSession(ClouConfig(), jobs=1, cache=True,
                                  cache_dir=cache_dir)
            report = session.analyze(AnalysisRequest.analyze(case.source, engine="fwd",
                                     name=case.name))
            return to_json(report, stable=True), session.stats

        fresh, fresh_stats = run()
        cached, cached_stats = run()
        assert fresh_stats.cache_hits == 0
        assert cached_stats.cache_hits > 0
        assert fresh == cached

    def test_resume_from_any_checkpoint_is_byte_identical(self):
        case = by_name("fwd05")
        module = compile_c(case.source, name=case.name)
        (function_name,) = [f.name for f in module.public_functions()]

        def run(resume=None, collect=None):
            aeg = SAEG(build_acfg(module, function_name).function)
            return ENGINES["fwd"](aeg, ClouConfig()).run(
                resume=resume, checkpoint=collect)

        snapshots = []
        uninterrupted = run(collect=snapshots.append)
        reference = function_report_dict(uninterrupted, stable=True)
        assert snapshots, "fwd engine emitted no checkpoints"
        for index in (0, len(snapshots) // 2, len(snapshots) - 1):
            # Each message is a delta: resume from the prefix's fold.
            resumed = run(resume=reduce(_fold, snapshots[:index + 1], None))
            assert function_report_dict(resumed, stable=True) == reference

    def test_resumed_runs_preserve_pruned_counter(self):
        # The store-side range-pruning counter is folded in at cursor 0
        # and carried by checkpoints: resuming must not double-count it.
        case = by_name("new02")
        module = compile_c(case.source, name=case.name)
        (function_name,) = [f.name for f in module.public_functions()]

        def run(resume=None, collect=None):
            aeg = SAEG(build_acfg(module, function_name).function)
            return ENGINES["fwd"](aeg, ClouConfig()).run(
                resume=resume, checkpoint=collect)

        snapshots = []
        uninterrupted = run(collect=snapshots.append)
        middle = len(snapshots) // 2
        resumed = run(resume=reduce(_fold, snapshots[:middle + 1], None))
        assert resumed.pruned == uninterrupted.pruned


class TestScale:
    @pytest.mark.slow
    def test_donna_completes(self):
        """FWD answers its distance queries from the shared windows and
        its fence-free queries from bitsets, so curve25519-donna (17k
        S-AEG nodes) runs to completion: 3 DT and no universal
        transmitter, as the ROADMAP measured with the per-pair queries."""
        report = _analyze("donna")
        (function,) = report.functions
        assert function.complete
        counts = {klass: sum(w.klass.value == klass
                             for w in function.transmitters())
                  for klass in ("DT", "CT", "UDT", "UCT")}
        assert counts["DT"] == 3
        assert counts["UDT"] == counts["UCT"] == 0
