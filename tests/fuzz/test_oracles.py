"""Oracle semantics on healthy layers: everything agrees, so every
oracle passes (or skips) on generated inputs.  Injected-bug detection
lives in ``test_runner.py``."""

import pytest

from repro.fuzz import ORACLES, OracleSkip, generate_c, generate_litmus
from repro.fuzz.oracles import oracles_for


class TestSelection:
    def test_default_is_every_oracle(self):
        assert [o.name for o in oracles_for(None)] == list(ORACLES)

    def test_named_subset(self):
        names = ("mcm-diff", "interp-interval")
        assert [o.name for o in oracles_for(names)] == list(names)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="mcm-diff"):
            oracles_for(("mcm-diff", "no-such-oracle"))

    def test_kinds_partition(self):
        kinds = {o.kind for o in ORACLES.values()}
        assert kinds == {"c", "litmus"}


class TestLitmusOracles:
    @pytest.mark.parametrize("name",
                             ["litmus-roundtrip", "mcm-diff", "sc-tso"])
    def test_passes_on_generated_programs(self, name):
        oracle = ORACLES[name]
        for seed in range(12):
            assert oracle.check(generate_litmus(seed)) is None


class TestInterpInterval:
    def test_passes_on_interpretable_programs(self):
        oracle = ORACLES["interp-interval"]
        for seed in range(12):
            generated = generate_c(seed, interpretable=True)
            assert oracle.check(generated) is None

    def test_skips_analysis_profile_programs(self):
        generated = generate_c(0, interpretable=False)
        with pytest.raises(OracleSkip):
            ORACLES["interp-interval"].check(generated)


class TestReportOracles:
    def test_serialize_roundtrip_passes(self):
        oracle = ORACLES["serialize-roundtrip"]
        for seed in range(3):
            assert oracle.check(generate_c(seed)) is None

    def test_jobs_invariance_passes(self):
        assert ORACLES["jobs-invariance"].check(generate_c(1)) is None


class TestRealizability:
    def test_registered_and_listed(self, capsys):
        from repro.cli import main

        oracle = ORACLES["realizability"]
        assert (oracle.kind, oracle.period) == ("c", 3)
        assert main(["fuzz", "--list-oracles"]) == 0
        assert "realizability" in capsys.readouterr().out

    def test_passes_on_generated_c(self):
        oracle = ORACLES["realizability"]
        for seed in range(6):
            assert oracle.check(generate_c(seed)) is None

    def test_detects_wrong_realizable(self, monkeypatch):
        """The oracle's reason to exist: a chain check that tests each
        block on its own, not all of them on one path, is flagged."""
        from repro.clou import SAEG

        realizable = SAEG.realizable

        def each_block_alone(self, nodes):
            return all(realizable(self, [node]) for node in nodes)

        monkeypatch.setattr(SAEG, "realizable", each_block_alone)
        oracle = ORACLES["realizability"]
        messages = [oracle.check(generate_c(seed)) for seed in range(12)]
        assert any(message is not None for message in messages)
