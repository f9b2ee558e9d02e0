"""Memoized §6.2.1 windows and FWD's pair queries against references.

``SAEG.window`` walks once per (anchor block, bound) from the block's
entry and offsets every distance by the anchor's index; FWD asks those
windows for its distance bounds and per-block bitsets for its unbounded
fence-free test.  Checked here, against the code kept in
``tests/clou/window_reference.py``:

- every view (distance, fence_free, the ``*_within`` lists) against a
  fresh walk from its anchor, for every anchor of a function, anchors
  visited in reverse so a block's table is first built for its last
  anchor; on hand-built blocks with lfences before and after anchors,
  the litmus suites before and after ``repair``, and Fig. 8 synthetics;
- the fence-free ``*_within`` variants against filtering with
  ``view.fence_free``;
- ``window(y, L).distance(x)`` against the ``min_distance`` DP;
- ``fence_free_between`` against the DFS, including a diamond whose
  clear arm is longer than any window bound.
"""

import pytest

from repro.bench.suites import all_litmus, by_name
from repro.bench.synthetic import fwd_corpus, scaling_corpus
from repro.clou import SAEG, build_acfg, repair
from repro.ir import (
    I1,
    U64,
    VOID,
    Argument,
    BasicBlock,
    BinOp,
    Branch,
    FenceInstr,
    Function,
    GlobalRef,
    Jump,
    Load,
    Ret,
    Store,
    Temp,
    pointer_to,
)
from repro.minic import compile_c
from tests.clou.window_reference import (
    anchor_window,
    fence_free_between,
    min_distance,
)

BOUNDS = (0, 1, 3, 50, 250)
SYNTHETICS = dict(scaling_corpus([2, 5]) + fwd_corpus([4]))


def _aegs(source, engine=None):
    """The S-AEG of every public function of ``source``; with
    ``engine``, after lfence repair for that engine."""
    module = compile_c(source)
    for function in module.public_functions():
        if function.blocks:
            acfg = build_acfg(module, function.name).function
            if engine is not None:
                repair(acfg, engine)
            yield SAEG(acfg)


def _hand_built(blocks):
    return SAEG(Function(
        name="f", params=[("c", I1)], return_type=VOID,
        blocks=[BasicBlock(label, list(body)) for label, body in blocks]))


def _global(name):
    return GlobalRef(name, pointer_to(U64))


def _fenced_blocks():
    """A diamond into a block with lfences before and after its loads
    and stores, so every anchor index meets a different fence prefix."""
    cond = Argument("c", I1)
    return _hand_built([
        ("entry", [Store(value=Argument("c", I1), pointer=_global("g")),
                   Branch(cond=cond, then_label="short",
                          else_label="long")]),
        ("short", [FenceInstr(), Jump(label="body")]),
        ("long", [Load(pointer=_global("a"), result=Temp("l0", U64)),
                  BinOp(), BinOp(), Jump(label="body")]),
        ("body", [Load(pointer=_global("a"), result=Temp("l1", U64)),
                  Store(value=Temp("l1", U64), pointer=_global("b")),
                  FenceInstr(),
                  Load(pointer=_global("b"), result=Temp("l2", U64)),
                  BinOp(),
                  FenceInstr(),
                  Store(value=Temp("l2", U64), pointer=_global("a")),
                  Branch(cond=cond, then_label="exit", else_label="tail")]),
        ("tail", [Load(pointer=_global("b"), result=Temp("l3", U64)),
                  Jump(label="exit")]),
        ("exit", [Ret()]),
    ])


def _check_views(aeg, bounds=BOUNDS):
    """Every anchor's view against a fresh walk; returns the count."""
    by_kind = {
        "branches": [n for n in aeg.nodes if n.is_branch],
        "loads": [n for n in aeg.nodes if n.is_load],
        "stores": [n for n in aeg.nodes if n.is_store],
    }
    views = 0
    for bound in bounds:
        for anchor in reversed(aeg.nodes):
            view = aeg.window(anchor, bound)
            fresh = anchor_window(aeg, anchor, bound)
            where = (aeg.function.name, anchor.describe(), bound)
            for node in aeg.nodes:
                assert view.distance(node) == fresh.distance(node), where
                assert view.fence_free(node) == fresh.fence_free(node), where
            for kind, nodes in by_kind.items():
                for limit in {bound, bound // 2}:
                    within = getattr(view, f"{kind}_within")
                    near = [n for n in nodes
                            if (fresh.distance(n) is not None
                                and fresh.distance(n) <= limit)]
                    assert within(limit) == near, where
                    assert within(limit, fence_free=True) == \
                        [n for n in near if fresh.fence_free(n)], where
                    assert within(limit, fence_free=True) == \
                        [n for n in within(limit) if view.fence_free(n)], \
                        where
            views += 1
    return views


def _check_pairs(aeg, bounds=BOUNDS):
    """FWD's pair queries against the references, over every pair."""
    pairs = 0
    for y in aeg.nodes:
        views = {bound: aeg.window(y, bound) for bound in bounds}
        for x in aeg.nodes:
            expected = min_distance(aeg, x, y)
            for bound, view in views.items():
                within = expected if expected is not None and \
                    expected <= bound else None
                assert view.distance(x) == within, (x.describe(),
                                                    y.describe(), bound)
            assert aeg.fence_free_between(x, y) == \
                fence_free_between(aeg, x, y), (x.describe(), y.describe())
            pairs += 1
    return pairs


def test_fenced_blocks_every_anchor():
    aeg = _fenced_blocks()
    assert sum(n.is_fence for n in aeg.by_block["body"]) == 2
    assert _check_views(aeg, range(16))
    assert _check_pairs(aeg, range(16))


def test_clear_arm_longer_than_the_bound():
    """``fence_free_between`` asks for *some* fence-free path of any
    length: the short arm holds an lfence, the clear arm is longer than
    the bound, so the window finds the branch within the bound but not
    on a fence-free path, and the pair query still says fence-free."""
    aeg = _hand_built([
        ("entry", [Branch(cond=Argument("c", I1), then_label="short",
                          else_label="long")]),
        ("short", [FenceInstr(), Jump(label="join")]),
        ("long", [BinOp() for _ in range(8)] + [Jump(label="join")]),
        ("join", [BinOp(), BinOp(), Ret()]),
    ])
    branch, anchor = aeg.by_block["entry"][0], aeg.by_block["join"][2]
    view = aeg.window(anchor, 10)
    assert view.distance(branch) == 4
    assert not view.fence_free(branch)  # the clear arm needs 11
    assert aeg.fence_free_between(branch, anchor)
    assert fence_free_between(aeg, branch, anchor)
    assert _check_views(aeg, range(16))
    assert _check_pairs(aeg, range(16))


@pytest.mark.parametrize("case", [c.name for c in all_litmus()])
def test_litmus(case):
    aegs = list(_aegs(by_name(case).source))
    assert sum(_check_views(aeg) for aeg in aegs)
    assert sum(_check_pairs(aeg) for aeg in aegs)


@pytest.mark.parametrize("case", [c.name for c in all_litmus()])
def test_litmus_after_repair(case):
    """Repair inserts lfences, and a repaired S-AEG is built afresh."""
    engine = "stl" if case.startswith("stl") else "pht"
    aegs = list(_aegs(by_name(case).source, engine))
    assert sum(_check_views(aeg) for aeg in aegs)
    assert sum(_check_pairs(aeg) for aeg in aegs)


@pytest.mark.parametrize("name", list(SYNTHETICS))
def test_synthetics(name):
    aegs = list(_aegs(SYNTHETICS[name]))
    assert sum(_check_views(aeg) for aeg in aegs)
    assert sum(_check_pairs(aeg) for aeg in aegs)
