"""Tests for the clou command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def victim_file(tmp_path):
    path = tmp_path / "victim.c"
    path.write_text("""
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
""")
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.c"
    path.write_text("uint64_t f(uint64_t x) { return x + 1; }")
    return str(path)


class TestAnalyze:
    def test_leaky_exit_code(self, victim_file, capsys):
        assert main(["analyze", victim_file]) == 1
        out = capsys.readouterr().out
        assert "UDT" in out

    def test_clean_exit_code(self, clean_file, capsys):
        assert main(["analyze", clean_file]) == 0

    def test_witness_flag(self, victim_file, capsys):
        main(["analyze", victim_file, "--witnesses"])
        out = capsys.readouterr().out
        assert "primitive" in out and "transmit" in out

    def test_engine_selection(self, victim_file, capsys):
        assert main(["analyze", victim_file, "--engine", "stl"]) in (0, 1)

    def test_class_filter(self, victim_file, capsys):
        main(["analyze", victim_file, "--classes", "udt"])
        out = capsys.readouterr().out
        assert "0DT" in out  # DT search disabled

    def test_parameter_flags(self, victim_file, capsys):
        # A tiny ROB/window suppresses the universal pattern.
        code = main(["analyze", victim_file, "--rob", "1", "--window", "1",
                     "--classes", "udt"])
        assert code == 0

    def test_no_addr_gep_filter(self, victim_file):
        assert main(["analyze", victim_file, "--no-addr-gep-filter"]) == 1


class TestDeadline:
    """With no daemon reachable, ``--deadline`` bounds the in-process
    fallback as it bounds the daemon path."""

    def test_missed_deadline_exits_incomplete(self, tmp_path, capsys):
        from repro.bench.suites import CORPUS_DIR

        donna = str(CORPUS_DIR / "crypto" / "donna.c")
        dead = str(tmp_path / "dead.sock")
        assert main(["analyze", donna, "--deadline", "0.5",
                     "--socket", dead]) == 3
        assert "deadline exceeded" in capsys.readouterr().err

    def test_met_deadline_keeps_the_exit_code(self, victim_file, tmp_path,
                                              capsys):
        dead = str(tmp_path / "dead.sock")
        assert main(["analyze", victim_file, "--deadline", "60",
                     "--socket", dead]) == 1
        assert "UDT" in capsys.readouterr().out


class TestRepair:
    def test_repair_success(self, victim_file, capsys):
        assert main(["repair", victim_file]) == 0
        out = capsys.readouterr().out
        assert "lfence at" in out
        assert "repaired" in out

    def test_repair_clean_function(self, clean_file, capsys):
        assert main(["repair", clean_file]) == 0


class TestFailOnSeverity:
    def test_analyze_gate_trips_at_udt(self, victim_file):
        assert main(["analyze", victim_file,
                     "--fail-on-severity", "UDT"]) == 1

    def test_analyze_gate_above_worst_passes(self, clean_file):
        assert main(["analyze", clean_file,
                     "--fail-on-severity", "CT"]) == 0

    def test_analyze_gate_threshold_ordering(self, victim_file):
        # The victim's worst finding is UDT (severity 3): both the DT
        # and UDT thresholds trip, and the gate is monotone.
        assert main(["analyze", victim_file,
                     "--fail-on-severity", "DT"]) == 1

    def test_no_range_pruning_flag(self, victim_file):
        assert main(["analyze", victim_file, "--no-range-pruning"]) == 1


class TestLint:
    def test_lint_reports_and_exits_zero_without_gate(self, victim_file,
                                                      capsys):
        assert main(["lint", victim_file]) == 0
        out = capsys.readouterr().out
        assert "lint" in out

    def test_lint_gate_trips(self, victim_file):
        assert main(["lint", victim_file, "--fail-on-severity", "DT"]) == 1

    def test_lint_gate_passes_clean_file(self, clean_file):
        assert main(["lint", clean_file, "--fail-on-severity", "AT"]) == 0

    def test_lint_public_exemption(self, victim_file):
        code = main(["lint", victim_file, "--public", "y",
                     "--fail-on-severity", "CT"])
        assert code == 0

    def test_lint_json_output(self, victim_file, capsys):
        import json

        assert main(["lint", victim_file, "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["constant_time"] is False
        assert parsed["findings"]

    def test_lint_multiple_sources_json_is_list(self, victim_file,
                                                clean_file, capsys):
        import json

        main(["lint", victim_file, clean_file, "--json"])
        parsed = json.loads(capsys.readouterr().out)
        assert isinstance(parsed, list) and len(parsed) == 2
