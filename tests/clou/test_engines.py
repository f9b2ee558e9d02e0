"""Tests for the Clou-PHT and Clou-STL detection engines (§5.3)."""

import pytest

from repro.clou import ClouConfig
from repro.sched import AnalysisRequest, ClouSession
from repro.lcm.taxonomy import TransmitterClass as TC

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

SPECTRE_V1_FENCED = """
uint8_t A[16];
uint8_t B[256 * 512];
uint64_t size_A = 16;
uint64_t tmp;

void victim(uint64_t y) {
    if (y < size_A) {
        lfence();
        uint8_t x = A[y];
        tmp &= B[x * 512];
    }
}
"""

STL01 = """
uint64_t ary_size = 16;
uint8_t *sec_ary;
uint8_t pub_ary[256 * 512];
uint8_t tmp;

void case_1(uint32_t idx) {
    uint32_t ridx = idx & (ary_size - 1);
    sec_ary[ridx] = 0;
    tmp &= pub_ary[sec_ary[ridx]];
}
"""

NO_BRANCH = """
uint8_t A[16];
uint8_t tmp;
void f(uint64_t y) { tmp &= A[y & 15]; }
"""

_SESSION = ClouSession(jobs=1, cache=False)


def _analyze(source, engine, **config_kwargs):
    config = ClouConfig(**config_kwargs) if config_kwargs else ClouConfig()
    return _SESSION.analyze(AnalysisRequest.analyze(source, engine=engine, config=config))


class TestClouPHT:
    def test_finds_udt(self):
        report = _analyze(SPECTRE_V1, "pht")
        assert report.total(TC.UNIVERSAL_DATA) == 1

    def test_udt_chain_is_the_classic_gadget(self):
        report = _analyze(SPECTRE_V1, "pht")
        udt = [w for w in report.transmitters
               if w.klass is TC.UNIVERSAL_DATA][0]
        assert "y.addr" in udt.index.text      # index: load of y
        assert "gep" in udt.access.text        # access: A[y]
        assert udt.transient_access
        assert udt.transient_transmit

    def test_no_branch_no_pht_leak(self):
        report = _analyze(NO_BRANCH, "pht")
        assert not report.leaky

    def test_lfence_blocks_detection(self):
        report = _analyze(SPECTRE_V1_FENCED, "pht")
        assert report.total(TC.UNIVERSAL_DATA) == 0

    def test_rob_bound(self):
        # With a tiny ROB the transmitter falls outside the window.
        report = _analyze(SPECTRE_V1, "pht", rob_size=2, window_size=2)
        assert report.total(TC.UNIVERSAL_DATA) == 0

    def test_addr_gep_filter_ablation(self):
        """Disabling the filter can only find more (or equal) UDTs."""
        with_filter = _analyze(SPECTRE_V1, "pht", addr_gep_filter=True)
        without = _analyze(SPECTRE_V1, "pht", addr_gep_filter=False)
        assert without.total(TC.UNIVERSAL_DATA) >= \
            with_filter.total(TC.UNIVERSAL_DATA)

    def test_class_selection(self):
        report = _analyze(SPECTRE_V1, "pht", classes=("udt",))
        assert report.total(TC.UNIVERSAL_DATA) == 1
        assert report.total(TC.DATA) == 0
        assert report.total(TC.CONTROL) == 0

    def test_control_transmitter(self):
        source = """
uint8_t A[16];
uint8_t B[4096];
uint64_t n;
uint8_t tmp;
void f(uint64_t y) {
    if (y < n) {
        if (A[y]) { tmp &= B[0]; }
    }
}
"""
        report = _analyze(source, "pht")
        assert report.total(TC.CONTROL) >= 1 or \
            report.total(TC.UNIVERSAL_CONTROL) >= 1


class TestClouSTL:
    def test_finds_stl01(self):
        report = _analyze(STL01, "stl")
        assert report.leaky
        assert report.total(TC.UNIVERSAL_DATA) >= 1

    def test_stack_spill_bypass_found(self):
        """§6.1: the stack read of idx can bypass its spill."""
        report = _analyze(STL01, "stl")
        spill_witnesses = [
            w for w in report.transmitters
            if "idx.addr" in w.primitive.text
        ]
        assert spill_witnesses

    def test_lfence_blocks_bypass(self):
        source = """
uint64_t ary_size = 16;
uint8_t sec_ary[16];
uint8_t pub_ary[4096];
uint8_t tmp;
void f(uint32_t idx) {
    uint32_t ridx = idx & (ary_size - 1);
    lfence();
    tmp &= pub_ary[sec_ary[ridx]];
}
"""
        report = _analyze(source, "stl")
        assert not report.leaky

    def test_lsq_bound(self):
        report = _analyze(STL01, "stl", lsq_size=0)
        assert not report.leaky

    def test_no_store_no_stl_leak(self):
        source = """
uint8_t A[16];
uint8_t tmp;
uint8_t f(void) { return A[0]; }
"""
        report = _analyze(source, "stl")
        assert not report.leaky


class TestRestrictions:
    def test_max_store_hops(self):
        """Restriction 2 (§6.2.1): at most one speculative write."""
        source = """
uint8_t A[16]; uint8_t B[4096]; uint64_t n; uint8_t t;
uint64_t s1; uint64_t s2;
void f(uint64_t y) {
    if (y < n) {
        s1 = A[y];
        s2 = s1;
        t &= B[s2];
    }
}
"""
        # Two memory hops: with max_store_hops=1 the UDT chain through
        # both slots is dropped; raising the bound recovers it.
        strict = _analyze(source, "pht", max_store_hops=1)
        loose = _analyze(source, "pht", max_store_hops=3)
        assert loose.total(TC.UNIVERSAL_DATA) >= strict.total(TC.UNIVERSAL_DATA)

    def test_committed_access_downgraded(self):
        """Restriction: universal patterns need a transient access; a
        committed access downgrades to DT (§6.2.1)."""
        source = """
uint8_t A[16]; uint8_t B[4096]; uint64_t n; uint8_t t;
void f(uint64_t y) {
    uint8_t x = A[y & 15];
    if (y < n) {
        t &= B[x * 16];
    }
}
"""
        report = _analyze(source, "pht")
        assert report.total(TC.UNIVERSAL_DATA) == 0
        assert report.total(TC.DATA) >= 1

    def test_timeout_flag(self):
        config = ClouConfig(timeout_seconds=0.000001)
        report = _SESSION.analyze(AnalysisRequest.analyze(SPECTRE_V1, engine="pht", config=config))
        assert report.functions[0].timed_out or report.functions[0].elapsed < 1


class TestRepair:
    def test_v1_repaired_with_one_fence(self):
        results = _SESSION.repair(AnalysisRequest.repair(SPECTRE_V1, engine="pht"))
        (result,) = results
        assert result.fully_repaired
        assert len(result.fences) == 1  # the paper: 1 fence per PHT program

    def test_stl_repaired(self):
        results = _SESSION.repair(AnalysisRequest.repair(STL01, engine="stl"))
        (result,) = results
        assert result.fully_repaired
        assert result.fences

    def test_clean_function_needs_no_fences(self):
        results = _SESSION.repair(AnalysisRequest.repair(NO_BRANCH, engine="pht"))
        (result,) = results
        assert result.fully_repaired
        assert result.fences == []

    def test_repair_summary(self):
        (result,) = _SESSION.repair(AnalysisRequest.repair(SPECTRE_V1, engine="pht"))
        assert "repaired" in result.summary()


class TestReports:
    def test_function_report_counts(self):
        report = _analyze(SPECTRE_V1, "pht")
        function_report = report.functions[0]
        counts = function_report.counts()
        assert counts[TC.UNIVERSAL_DATA] == 1
        assert function_report.leaky
        assert function_report.aeg_size > 0

    def test_module_summary_renders(self):
        report = _analyze(SPECTRE_V1, "pht")
        assert "UDT" in report.summary()

    def test_witness_describe(self):
        report = _analyze(SPECTRE_V1, "pht")
        text = report.transmitters[0].describe()
        assert "primitive" in text and "transmit" in text

    def test_unknown_engine(self):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError, match="unknown engine"):
            _SESSION.analyze(AnalysisRequest.analyze(
                SPECTRE_V1, engine="nope", functions=("victim",)))
