"""Fig. 7 path realizability: the S-AEG's entry-rooted bitset chain
check (``SAEG.realizable``) against a fresh path search per query from
the entry along the A-CFG's successor edges
(``repro.fuzz.oracles.realizable_by_search``).

Every corpus the analysis runs on is covered — the litmus suites, the
crypto files, the Fig. 8 synthetics up to 60 rounds, the OpenSSL-shaped
unit and generated C programs — with seeded random block sets of size
1-4 plus the engines' own pair and triple query shapes.
"""

import random

import pytest

from repro.bench.suites import all_litmus, by_name, crypto_cases
from repro.bench.synthetic import openssl_like_source, scaling_corpus
from repro.clou import SAEG, build_acfg
from repro.clou.serialize import to_json
from repro.fuzz.gen_c import generate_c
from repro.fuzz.oracles import realizable_by_search
from repro.minic import compile_c
from repro.sched import AnalysisRequest

QUERIES = 40         # per function: 3/5 random block sets, 2/5 engine shapes


def _aegs(source):
    module = compile_c(source)
    for function in module.public_functions():
        if function.blocks:
            yield SAEG(build_acfg(module, function.name).function)


def _queries(aeg, seed):
    """Seeded random block sets of size 1-4 (one node per block: the
    query depends only on the blocks) plus the engines' shapes:
    (access, transmit) and (branch, transmit) pairs and (index|store,
    access, transmit) triples over memory and branch nodes."""
    rng = random.Random(repr((seed, aeg.function.name)))
    heads = [nodes[0] for nodes in aeg.by_block.values() if nodes]
    events = aeg.memory_nodes() + aeg.branches()
    shapes = QUERIES * 2 // 5 if len(events) >= 3 else 0
    queries = [rng.sample(heads, rng.randint(1, min(4, len(heads))))
               for _ in range(QUERIES - shapes)]
    queries += [rng.sample(events, rng.choice((2, 3)))
                for _ in range(shapes)]
    return queries


def _disagreements(source, seed=0):
    """(function, blocks, chain, search) for every query the two
    realizability checks answer differently; also the query count."""
    mismatches, count = [], 0
    for aeg in _aegs(source):
        for nodes in _queries(aeg, seed):
            count += 1
            chain = aeg.realizable(nodes)
            search = realizable_by_search(aeg, nodes)
            if chain != search:
                mismatches.append((aeg.function.name,
                                   sorted({n.block for n in nodes}),
                                   chain, search))
    return mismatches, count


def _aeg(source, function):
    module = compile_c(source)
    return SAEG(build_acfg(module, function).function)


class TestAgreementWithFresh:
    @pytest.mark.parametrize("case,function", [
        ("pht01", "victim_function_v01"),
        ("stl01", "case_1"),
    ])
    def test_pairs_and_triples_match_fresh(self, case, function):
        """Exhaustive singles, pairs and consecutive triples."""
        aeg = _aeg(by_name(case).source, function)
        nodes = aeg.memory_nodes() + aeg.branches()
        streams = [[n] for n in nodes]
        streams += [[a, b] for i, a in enumerate(nodes) for b in nodes[i + 1:]]
        streams += [nodes[i:i + 3] for i in range(len(nodes) - 2)]
        for query in streams:
            assert aeg.realizable(query) == realizable_by_search(aeg, query), \
                [n.block for n in query]

    @pytest.mark.parametrize("case", [c.name for c in all_litmus()])
    def test_litmus(self, case):
        mismatches, count = _disagreements(by_name(case).source)
        assert count and not mismatches

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_c(self, seed):
        mismatches, count = _disagreements(generate_c(seed).source, seed)
        assert count and not mismatches

    def test_empty_query_is_realizable(self):
        assert _aeg(by_name("pht01").source, "victim_function_v01"
                    ).realizable([])

    def test_chain_starts_at_the_entry(self):
        """A block set that is a chain on its own is still unrealizable
        when the entry cannot reach its first block (an orphan block
        never executes: no incoming edge is ever taken)."""
        from repro.ir import BasicBlock, Jump

        aeg = _aeg(by_name("pht01").source, "victim_function_v01")
        function = aeg.function
        exit_label = function.blocks[-1].label
        orphan = BasicBlock(label="orphan.0",
                            instructions=[Jump(label=exit_label)])
        function.blocks.append(orphan)
        aeg = SAEG(function)
        nodes = [aeg.by_block["orphan.0"][0],
                 aeg.by_block[exit_label][0]]
        assert not aeg.realizable(nodes)
        assert not realizable_by_search(aeg, nodes)
        assert aeg.realizable(nodes[1:]) \
            and realizable_by_search(aeg, nodes[1:])


@pytest.mark.slow
class TestAgreementAtScale:
    @pytest.mark.parametrize("case", [c.name for c in crypto_cases()])
    def test_crypto(self, case):
        mismatches, count = _disagreements(by_name(case).source)
        assert count and not mismatches

    @pytest.mark.parametrize("name,source", [
        (name, source) for name, source in scaling_corpus()
        if int(name.rsplit("_", 1)[1]) <= 60
    ])
    def test_fig8_synthetics(self, name, source):
        mismatches, count = _disagreements(source)
        assert count and not mismatches

    def test_openssl_shaped_unit(self):
        mismatches, count = _disagreements(
            openssl_like_source(n_functions=12, seed=23))
        assert count and not mismatches

    @pytest.mark.parametrize("seed", range(8, 68))
    def test_generated_c(self, seed):
        mismatches, count = _disagreements(generate_c(seed).source, seed)
        assert count and not mismatches


class TestEngineIntegration:
    def test_output_identical_with_fresh_oracle(self, monkeypatch):
        """Swapping the chain check for the path-search reference must
        leave the analysis output byte-identical."""
        from repro.sched import ClouSession

        source = by_name("pht03").source

        def fresh_report():
            session = ClouSession(jobs=1, cache=False)
            return session.analyze(AnalysisRequest.analyze(source, engine="pht", name="diff"))

        baseline = to_json(fresh_report(), stable=True)
        monkeypatch.setattr(SAEG, "realizable", realizable_by_search)
        assert to_json(fresh_report(), stable=True) == baseline

