"""Checkpoint/resume determinism, degradation stats, and interrupts.

The contract under test: an analysis that is killed part-way (hang,
crash, memory) and resumed from its streamed checkpoint produces output
*byte-identical* to an uninterrupted run, and every degraded outcome is
visible in the coverage accounting instead of silently missing.
"""

import os
from functools import reduce

import pytest

from repro.clou import ClouConfig
from repro.clou.acfg import build_acfg
from repro.clou.aeg import SAEG
from repro.clou.engine import ENGINES
from repro.clou.serialize import function_report_dict, to_json
from repro.minic import compile_c
from repro.sched import AnalysisRequest, ClouSession, SchedulerInterrupt, run_items
from repro.sched.scheduler import _fold

VICTIM = """
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


def _engine_run(resume=None, collect=None):
    module = compile_c(VICTIM, name="victim.c")
    aeg = SAEG(build_acfg(module, "victim").function)
    return ENGINES["pht"](aeg, ClouConfig()).run(
        resume=resume, checkpoint=collect)


def _checkpoint(messages, index):
    """The full checkpoint after ``messages[index]``: the fold of the
    stream's prefix (each message carries only its new witnesses)."""
    return reduce(_fold, messages[:index + 1], None)


class TestEngineResume:
    def test_checkpoints_stream_monotone_cursors(self):
        snapshots = []
        _engine_run(collect=snapshots.append)
        assert snapshots, "engine emitted no checkpoints"
        cursors = [snap["cursor"] for snap in snapshots]
        assert cursors == sorted(cursors)
        assert snapshots[-1]["total"] > 0

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    def test_resume_from_any_snapshot_is_deterministic(self, fraction):
        snapshots = []
        uninterrupted = _engine_run(collect=snapshots.append)
        reference = function_report_dict(uninterrupted, stable=True)
        middle = _checkpoint(snapshots,
                             int(fraction * (len(snapshots) - 1)))
        resumed = _engine_run(resume=middle)
        assert function_report_dict(resumed, stable=True) == reference

    def test_resume_does_not_duplicate_witnesses(self):
        snapshots = []
        uninterrupted = _engine_run(collect=snapshots.append)
        resumed = _engine_run(
            resume=_checkpoint(snapshots, len(snapshots) // 2))
        assert len(resumed.witnesses) == len(uninterrupted.witnesses)
        keys = [(w.klass, str(w.transmit), str(w.primitive))
                for w in resumed.witnesses]
        assert len(keys) == len(set(keys))


def _session(fault_spec=None, **kwargs):
    config = ClouConfig(fault_spec=fault_spec)
    return ClouSession(config, cache=False, **kwargs)


class TestPoolKillResume:
    def test_hang_kill_resume_matches_uninterrupted_run(self):
        clean = _session(jobs=1).analyze(AnalysisRequest.analyze(VICTIM, engine="pht",
                                         name="victim.c"))
        session = _session("hang@engine.candidate#2", jobs=2, timeout=30,
                           stall_timeout=0.5, retries=2)
        faulted = session.analyze(AnalysisRequest.analyze(VICTIM, engine="pht", name="victim.c"))
        assert session.stats.resumed >= 1
        # to_json differs only through config.fault_spec; the function
        # reports themselves must be byte-identical.
        assert to_json(clean, stable=True) != to_json(faulted, stable=True)
        assert [function_report_dict(f, stable=True)
                for f in faulted.functions] \
            == [function_report_dict(f, stable=True)
                for f in clean.functions]

    def test_crash_kill_resume_matches_uninterrupted_run(self):
        clean = _session(jobs=1).analyze(AnalysisRequest.analyze(VICTIM, engine="pht",
                                         name="victim.c"))
        session = _session("crash@engine.candidate#2", jobs=2, timeout=30,
                           retries=2)
        faulted = session.analyze(AnalysisRequest.analyze(VICTIM, engine="pht", name="victim.c"))
        assert session.stats.resumed >= 1
        assert [function_report_dict(f, stable=True)
                for f in faulted.functions] \
            == [function_report_dict(f, stable=True)
                for f in clean.functions]


class TestDegradationStats:
    def test_budget_faults_surface_in_stats_and_coverage(self):
        session = _session("budget@engine.candidate%1.0", jobs=1)
        report = session.analyze(AnalysisRequest.analyze(VICTIM, engine="pht", name="victim.c"))
        assert report.skipped > 0
        assert not report.complete
        assert report.verdict == "unknown"
        assert session.stats.skipped == report.skipped
        assert report.coverage()["skipped_by_budget"] == report.skipped

    def test_degraded_reports_are_not_cached(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        config = ClouConfig(fault_spec="budget@engine.candidate%1.0")
        degraded = ClouSession(config, cache=True, cache_dir=cache_dir,
                               jobs=1)
        report = degraded.analyze(
            AnalysisRequest.analyze(VICTIM, engine="pht", name="victim.c"))
        assert report.verdict == "unknown"
        # The degraded (incomplete) report must not have been stored
        # under this config's cache key.
        rerun = ClouSession(config, cache=True, cache_dir=cache_dir, jobs=1)
        rerun.analyze(
            AnalysisRequest.analyze(VICTIM, engine="pht", name="victim.c"))
        assert rerun.stats.cache_hits == 0


def _interrupting(payload):
    raise KeyboardInterrupt


class TestInterrupts:
    def test_serial_interrupt_raises_scheduler_interrupt(self):
        with pytest.raises(SchedulerInterrupt):
            run_items(_interrupting, [1, 2], jobs=1)

    def test_cli_maps_interrupt_to_130(self, monkeypatch, tmp_path):
        import repro.cli as cli

        def boom(args):
            raise SchedulerInterrupt("interrupted")

        monkeypatch.setattr(cli, "_run_analyze", boom)
        source = tmp_path / "x.c"
        source.write_text("uint64_t f(uint64_t x) { return x; }")
        assert cli.main(["analyze", str(source)]) == cli.EXIT_INTERRUPTED


@pytest.mark.slow
class TestDonnaAcceptance:
    """The ISSUE acceptance experiment: a wall-clock/stall-killed
    curve25519_donna analysis, resumed via checkpoint, produces --json
    byte-identical to an uninterrupted run."""

    def test_donna_resume_byte_identical(self):
        corpus = os.path.join(os.path.dirname(__file__), "..", "..",
                              "src", "repro", "bench", "corpus", "crypto",
                              "donna.c")
        with open(corpus) as handle:
            source = handle.read()

        def run(spec, **kwargs):
            session = _session(spec, **kwargs)
            report = session.analyze(AnalysisRequest.analyze(source, engine="pht", name="donna.c",
                                     functions=("curve25519_donna",)))
            return report, session

        clean, _ = run(None, jobs=2, timeout=600)
        faulted, session = run("hang@engine.candidate#4", jobs=2,
                               timeout=600, stall_timeout=5, retries=2)
        assert session.stats.resumed >= 1
        assert [function_report_dict(f, stable=True)
                for f in faulted.functions] \
            == [function_report_dict(f, stable=True)
                for f in clean.functions]
