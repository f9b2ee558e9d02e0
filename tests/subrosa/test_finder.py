"""Tests for the subrosa bounded model finder."""

import pytest

from repro.lcm import (
    confidentiality_strict,
    confidentiality_x86,
    detect_leaks,
    is_leaky,
    x86_lcm,
    inorder_lcm,
)
from repro.lcm.contracts import LeakageContainmentModel
from repro.lcm.xstate import DirectMappedPolicy
from repro.litmus import SpeculationConfig, parse_program
from repro.mcm import TSO
from repro.subrosa import check, compare, find, instances

TINY = parse_program("r1 = load x\nstore y, r1", name="tiny")
TWO_LOADS = parse_program("r1 = load x\nr2 = load x", name="two-loads")

STORE_LOAD = parse_program("store x, 1\nr1 = load x", name="store-load")

BYPASS = parse_program("""
  store y, 1
  r1 = load y
""", name="bypass")


def _lcm(confidentiality, speculation=None):
    return LeakageContainmentModel(
        name="test",
        mcm=TSO,
        policy_factory=DirectMappedPolicy,
        confidentiality=confidentiality,
        speculation=speculation or SpeculationConfig.none(),
    )


class TestInstances:
    def test_tiny_program_has_models(self):
        lcm = _lcm(confidentiality_x86)
        models = list(instances(lcm, TINY))
        assert models
        for execution in models:
            assert execution.xwitness is not None

    def test_strict_subset_of_relaxed(self):
        strict = _lcm(confidentiality_strict)
        relaxed = _lcm(confidentiality_x86)
        assert len(list(instances(strict, TINY))) <= len(list(instances(relaxed, TINY)))


class TestFind:
    def test_find_leaky_execution(self):
        lcm = _lcm(confidentiality_x86)
        found = find(lcm, TINY, is_leaky, limit=1)
        assert len(found) == 1
        assert detect_leaks(found[0])

    def test_find_respects_limit(self):
        lcm = _lcm(confidentiality_x86)
        found = find(lcm, TINY, lambda e: True, limit=3)
        assert len(found) == 3

    def test_find_unsatisfiable(self):
        lcm = _lcm(confidentiality_x86)
        found = find(lcm, TINY, lambda e: False, limit=1)
        assert found == []


class TestCheck:
    def test_true_assertion_holds(self):
        lcm = _lcm(confidentiality_x86)
        counterexample = check(
            lcm, TINY, lambda e: e.structure.top is not None
        )
        assert counterexample is None

    def test_violated_assertion_yields_counterexample(self):
        lcm = _lcm(confidentiality_x86)
        counterexample = check(lcm, TINY, lambda e: not is_leaky(e))
        assert counterexample is not None
        assert is_leaky(counterexample)

    def test_confidentiality_enforced_in_models(self):
        lcm = _lcm(confidentiality_strict)
        counterexample = check(
            lcm, TWO_LOADS,
            lambda e: (e.rfx | e.cox | e.frx | e.structure.tfo).is_acyclic(),
        )
        assert counterexample is None


def _store_to_load(execution):
    """The (write, read) rfx edge from the store to the committed load."""
    structure = execution.structure
    read = next(r for r in structure.reads
                if r.committed and r not in structure.bottoms)
    return structure.writes[0], read


class TestPartialInstanceQueries:
    """Alloy-style partial instances: rfx edges a model must contain or
    must not contain, phrased as predicates over the bounded space."""

    def test_require_edge(self):
        lcm = _lcm(confidentiality_x86)
        found = find(lcm, STORE_LOAD,
                     lambda e: _store_to_load(e) in e.rfx)
        assert found
        assert _store_to_load(found[0]) in found[0].rfx

    def test_forbid_edge_finds_deviation(self):
        """Forbidding the expected rfx edge yields an NI-violating
        model: a leak on exactly that edge."""
        lcm = _lcm(confidentiality_x86)
        found = find(lcm, STORE_LOAD,
                     lambda e: _store_to_load(e) not in e.rfx)
        assert found
        edge = _store_to_load(found[0])
        assert any(leak.edge == edge for leak in detect_leaks(found[0]))

    def test_unsatisfiable_query(self):
        """The read cannot source from both the write and ⊤."""
        lcm = _lcm(confidentiality_x86)

        def both_sources(execution):
            write, read = _store_to_load(execution)
            top = execution.structure.top
            return (write, read) in execution.rfx \
                and (top, read) in execution.rfx

        assert find(lcm, STORE_LOAD, both_sources) == []
        assert check(lcm, STORE_LOAD,
                     lambda e: not both_sources(e)) is None


class TestCompare:
    def test_lcm_self_comparison_is_equivalent(self):
        lcm = _lcm(confidentiality_x86)
        result = compare(lcm, _lcm(confidentiality_x86), TINY)
        assert result.equivalent
        assert result.common > 0

    def test_strict_vs_relaxed_differ_on_bypass(self):
        """The x86 LCM admits frx+tfo cycles (store bypass) that the naive
        sc_per_loc lift forbids (§4.2) — subrosa distinguishes them."""
        speculation = SpeculationConfig(
            depth=1, branch_speculation=False, store_bypass=True)
        relaxed = _lcm(confidentiality_x86, speculation)
        strict = _lcm(confidentiality_strict, speculation)
        result = compare(relaxed, strict, BYPASS)
        assert not result.equivalent
        assert result.only_first  # behaviours only x86 allows
        assert not result.only_second  # strict allows nothing extra

    def test_comparison_repr(self):
        lcm = _lcm(confidentiality_x86)
        result = compare(lcm, lcm, TINY)
        assert "Comparison" in repr(result)
