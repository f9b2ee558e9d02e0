"""The §6.2.1 sliding window (``SAEG.window``) against a per-instruction
reverse BFS kept here as the reference.

For every anchor node and every bound in ``BOUNDS``, ``distance``,
``contains`` and ``fence_free`` must agree with the reference on every
node of the function, and ``branches_within``/``loads_within``/
``stores_within`` must list exactly the reference's nodes of that kind,
in position order.  Inputs: the litmus suites (also after lfence
repair), small Fig. 8 synthetics, ``stl10`` (which carries lfences) and,
marked slow, the memory-node anchors of the crypto files other than
donna.
"""

import pytest

from repro.bench.suites import all_litmus, by_name, crypto_cases
from repro.bench.synthetic import scaling_corpus
from repro.clou import SAEG, build_acfg, repair
from repro.minic import compile_c

BOUNDS = (0, 1, 2, 50, 250)


def node_preds(aeg):
    """Instruction-level predecessor lists of ``aeg``."""
    preds = [[] for _ in aeg.nodes]
    for nodes in aeg.by_block.values():
        for previous, node in zip(nodes, nodes[1:]):
            preds[node.nid].append(previous.nid)
    for label, successors in aeg._successors.items():
        for succ in successors:
            if aeg.by_block[label] and aeg.by_block[succ]:
                preds[aeg.by_block[succ][0].nid].append(
                    aeg.by_block[label][-1].nid)
    return preds


def reference_window(aeg, preds, anchor, bound):
    """Reverse BFS over single instructions from ``anchor``: node id ->
    minimal number of instructions strictly between it and the anchor
    (within ``bound``), and the ids with an lfence-free path of at most
    ``bound`` instructions to the anchor."""
    distances, clear = {}, set()
    frontier = [(anchor.nid, -1, True)]
    while frontier:
        next_frontier = []
        for nid, distance, fence_free in frontier:
            for pred in preds[nid]:
                pred_distance = distance + 1
                if pred_distance > bound:
                    continue
                pred_clear = fence_free and not aeg.nodes[nid].is_fence \
                    if nid != anchor.nid else True
                known = distances.get(pred)
                improves_distance = known is None or pred_distance < known
                improves_clear = pred_clear and pred not in clear
                if not improves_distance and not improves_clear:
                    continue
                if improves_distance:
                    distances[pred] = pred_distance
                if pred_clear:
                    clear.add(pred)
                next_frontier.append((pred, pred_distance, pred_clear))
        frontier = next_frontier
    return distances, clear


def _aegs(source):
    module = compile_c(source)
    for function in module.public_functions():
        if function.blocks:
            yield SAEG(build_acfg(module, function.name).function)


def _check(aeg, anchors=None):
    """Compare the windows of ``anchors`` (default: every node of
    ``aeg``) with the reference; returns the number compared."""
    preds = node_preds(aeg)
    by_position = sorted(aeg.nodes, key=lambda node: node.position)
    branches = [node for node in by_position if node.is_branch]
    loads = [node for node in by_position if node.is_load]
    stores = [node for node in by_position if node.is_store]
    windows = 0
    for bound in BOUNDS:
        for anchor in anchors or aeg.nodes:
            distances, clear = reference_window(aeg, preds, anchor, bound)
            view = aeg.window(anchor, bound)
            for node in aeg.nodes:
                expected = distances.get(node.nid)
                got = (view.distance(node), view.contains(node),
                       view.fence_free(node))
                assert got == (expected, expected is not None,
                               node.nid in clear), (
                    aeg.function.name, anchor.describe(), bound,
                    node.describe())
            for nodes, within in ((branches, view.branches_within),
                                  (loads, view.loads_within),
                                  (stores, view.stores_within)):
                for limit in {bound, bound // 2}:
                    expected = [node for node in nodes
                                if distances.get(node.nid, limit + 1) <= limit]
                    assert within(limit) == expected, (
                        aeg.function.name, anchor.describe(), bound, limit)
            windows += 1
    return windows


@pytest.mark.parametrize("case", [c.name for c in all_litmus()])
def test_litmus(case):
    assert sum(_check(aeg) for aeg in _aegs(by_name(case).source))


@pytest.mark.parametrize("case", [c.name for c in all_litmus()])
def test_litmus_after_repair(case):
    """Repair inserts lfences, so fenced paths and fence-free detours
    are both exercised."""
    module = compile_c(by_name(case).source)
    windows = 0
    for function in module.public_functions():
        if not function.blocks:
            continue
        acfg = build_acfg(module, function.name).function
        engine = "stl" if case.startswith("stl") else "pht"
        repair(acfg, engine)
        windows += _check(SAEG(acfg))
    assert windows


def test_stl10_carries_fences():
    aegs = list(_aegs(by_name("stl10").source))
    assert any(node.is_fence for aeg in aegs for node in aeg.nodes)
    assert sum(_check(aeg) for aeg in aegs)


@pytest.mark.parametrize("name,source", scaling_corpus([2, 5, 10, 25]))
def test_fig8_synthetics(name, source):
    assert sum(_check(aeg) for aeg in _aegs(source))


@pytest.mark.slow
@pytest.mark.parametrize("case", [c.name for c in crypto_cases()
                                  if c.name != "donna"])
def test_crypto(case):
    """Anchored where the engines anchor windows: at memory nodes."""
    assert sum(_check(aeg, aeg.memory_nodes())
               for aeg in _aegs(by_name(case).source))
