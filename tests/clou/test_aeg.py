"""Tests for the S-AEG: ordering, windows, deps, taint, rf (§5.2-§5.3)."""

import pytest

from repro.clou import SAEG, build_acfg
from repro.errors import ModelError
from repro.ir import (
    I1,
    VOID,
    Argument,
    BasicBlock,
    BinOp,
    Branch,
    FenceInstr,
    Function,
    Jump,
    Load,
    Ret,
    Store,
)
from repro.minic import compile_c

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


def _aeg(source, function):
    module = compile_c(source)
    return SAEG(build_acfg(module, function).function)


@pytest.fixture(scope="module")
def v1():
    return _aeg(SPECTRE_V1, "victim")


def _filler(count):
    return [BinOp() for _ in range(count)]


def _hand_built(blocks):
    """An S-AEG over hand-built ``(label, instructions)`` blocks."""
    return SAEG(Function(
        name="f", params=[("c", I1)], return_type=VOID,
        blocks=[BasicBlock(label, list(body)) for label, body in blocks]))


def _diamond(join):
    """entry branches to a 2-instruction arm holding an lfence and a
    5-instruction fence-free arm; both jump to ``join``."""
    return _hand_built([
        ("entry", [Branch(cond=Argument("c", I1), then_label="short",
                          else_label="long")]),
        ("short", [FenceInstr(), Jump(label="join")]),
        ("long", _filler(4) + [Jump(label="join")]),
        ("join", join),
    ])


def _load_of(aeg, fragment):
    for node in aeg.loads():
        if fragment in str(node.instruction.pointer):
            return node
    raise AssertionError(f"no load matching {fragment!r}")


class TestOrdering:
    def test_before_within_block(self, v1):
        nodes = v1.by_block["entry"]
        assert v1.before(nodes[0], nodes[1])
        assert not v1.before(nodes[1], nodes[0])

    def test_before_across_blocks(self, v1):
        entry = v1.by_block["entry"][0]
        body = v1.by_block["if.then.0"][0]
        assert v1.before(entry, body)
        assert not v1.before(body, entry)

    def test_exclusive_branches_not_coexecutable(self):
        aeg = _aeg("""
uint8_t a; uint8_t b;
void f(int c) {
    if (c) { a = 1; } else { b = 2; }
}
""", "f")
        then_node = aeg.by_block["if.then.0"][0]
        else_node = aeg.by_block["if.else.1"][0]
        assert not aeg.co_executable(then_node, else_node)

    def test_min_distance_same_block(self, v1):
        nodes = v1.by_block["entry"]
        assert v1.min_distance(nodes[0], nodes[3]) == 2

    def test_size(self, v1):
        assert v1.size == v1.function.instruction_count()


class TestWindows:
    def test_window_distances(self, v1):
        body = v1.by_block["if.then.0"]
        view = v1.window(body[-1], 100)
        assert view.distance(body[0]) == len(body) - 2
        assert view.contains(v1.by_block["entry"][0])

    def test_window_bound_respected(self, v1):
        body = v1.by_block["if.then.0"]
        view = v1.window(body[-1], 2)
        assert not view.contains(v1.by_block["entry"][0])

    def test_fence_blocks_window(self):
        aeg = _aeg("""
uint8_t a[16]; uint8_t b[4096]; uint64_t n; uint8_t t;
void f(uint64_t y) {
    if (y < n) {
        lfence();
        t &= b[a[y]];
    }
}
""", "f")
        transmit = aeg.loads()[-1]
        view = aeg.window(transmit, 100)
        branches = [n for n in aeg.nodes if n.is_branch]
        assert branches
        assert view.contains(branches[0])
        assert not view.fence_free(branches[0])

    def test_fence_free_when_no_fence(self, v1):
        body = v1.by_block["if.then.0"]
        view = v1.window(body[-1], 100)
        branch = next(n for n in v1.nodes if n.is_branch)
        assert view.fence_free(branch)

    def test_fence_free_detour_longer_than_shortest_path(self):
        """fence_free asks for *some* fence-free path within the bound:
        the lfence sits on the short arm, the long arm is clear."""
        aeg = _diamond(_filler(1) + [Ret()])
        anchor = aeg.by_block["join"][1]
        branch = aeg.by_block["entry"][0]
        short_fence, short_jump = aeg.by_block["short"]
        # short arm: 2 + join prefix 1; long arm: 5 + 1.
        fits = aeg.window(anchor, 6)
        assert fits.distance(branch) == 3
        assert fits.fence_free(branch)
        tight = aeg.window(anchor, 5)
        assert tight.distance(branch) == 3
        assert not tight.fence_free(branch)
        for view in (fits, tight):
            assert view.fence_free(short_fence)  # the fence is not between
            assert view.fence_free(short_jump)
        assert tight.branches_within(5) == [branch]
        assert tight.branches_within(2) == []

    def test_anchor_at_block_start(self):
        aeg = _diamond([Ret()])
        anchor = aeg.by_block["join"][0]
        view = aeg.window(anchor, 10)
        assert view.distance(aeg.by_block["short"][-1]) == 0
        assert view.distance(aeg.by_block["long"][-1]) == 0
        assert view.distance(aeg.by_block["entry"][0]) == 2
        assert view.fence_free(aeg.by_block["entry"][0])  # via the long arm
        assert not view.contains(anchor)
        assert not view.fence_free(anchor)

    def test_fence_just_before_anchor(self):
        aeg = _hand_built([
            ("entry", [Jump(label="body")]),
            ("body", _filler(2) + [FenceInstr(), Ret()]),
        ])
        first, second, fence, anchor = aeg.by_block["body"]
        view = aeg.window(anchor, 10)
        assert view.distance(fence) == 0 and view.fence_free(fence)
        assert view.distance(second) == 1 and not view.fence_free(second)
        assert not view.fence_free(first)
        entry = aeg.by_block["entry"][0]
        assert view.distance(entry) == 3 and not view.fence_free(entry)

    def test_bound_zero_keeps_immediate_predecessors(self):
        aeg = _diamond([Ret()])
        view = aeg.window(aeg.by_block["join"][0], 0)
        inside = {node for node in aeg.nodes if view.contains(node)}
        assert inside == {aeg.by_block["short"][-1], aeg.by_block["long"][-1]}
        assert all(view.distance(node) == 0 for node in inside)
        assert all(view.fence_free(node) for node in inside)
        inner = _diamond(_filler(1) + [Ret()])
        view = inner.window(inner.by_block["join"][1], 0)
        assert [node for node in inner.nodes if view.contains(node)] == \
            [inner.by_block["join"][0]]

    def test_window_agrees_with_min_distance(self, v1):
        body = v1.by_block["if.then.0"]
        anchor = body[-1]
        view = v1.window(anchor, 200)
        for node in v1.nodes:
            expected = v1.min_distance(node, anchor)
            if expected is not None and expected <= 200:
                assert view.distance(node) == expected


class TestDependencies:
    def test_addr_gep_chain(self, v1):
        access = _load_of(v1, "gep")       # A[y]
        deps = v1.address_deps(access)
        assert any(dep.via_gep_index for dep in deps)

    def test_index_feeds_access_feeds_transmit(self, v1):
        loads = v1.loads()
        transmit = loads[-1]  # B[x * 512]
        transmit_deps = v1.address_deps(transmit)
        sources = {v1.node_of(d.source) for d in transmit_deps}
        access = _load_of(v1, "gep")
        assert access in sources

    def test_data_rf_extension(self):
        """(data.rf)*: a value stored and re-loaded keeps its dep chain,
        with store_hops incremented (§5.3)."""
        aeg = _aeg("""
uint8_t A[16]; uint8_t B[4096]; uint64_t n; uint8_t t; uint64_t slot;
void f(uint64_t y) {
    if (y < n) {
        slot = A[y];
        t &= B[slot];
    }
}
""", "f")
        transmit = aeg.loads()[-1]
        deps = aeg.address_deps(transmit)
        hopped = [d for d in deps if d.store_hops >= 1]
        assert hopped
        origin = aeg.node_of(hopped[0].source)
        assert "A" in str(origin.instruction.pointer) or "gep" in str(
            origin.instruction.pointer)

    def test_branch_cond_deps(self, v1):
        branch = next(n for n in v1.nodes if n.is_branch)
        deps = v1.branch_cond_deps(branch)
        assert deps  # the bounds check reads y and size_A


class TestTaint:
    def test_argument_spill_tainted(self, v1):
        y_load = _load_of(v1, "y.addr")
        assert v1.value_tainted(y_load.instruction.result)

    def test_global_int_load_tainted(self, v1):
        size_load = _load_of(v1, "size_A")
        assert v1.value_tainted(size_load.instruction.result)

    def test_loop_counter_untainted(self):
        aeg = _aeg("""
uint8_t a[16];
uint64_t f(void) {
    uint64_t acc = 0;
    for (uint64_t i = 0; i < 16; i++) { acc += a[i]; }
    return acc;
}
""", "f")
        counter_loads = [
            n for n in aeg.loads()
            if "i.addr" in str(n.instruction.pointer)
        ]
        assert counter_loads
        assert not any(
            aeg.value_tainted(n.instruction.result) for n in counter_loads
        )

    def test_loaded_pointer_untainted(self):
        aeg = _aeg("""
uint8_t *p;
uint8_t f(void) { return p[0]; }
""", "f")
        pointer_loads = [
            n for n in aeg.loads() if n.instruction.result.type.is_pointer
        ]
        assert pointer_loads
        assert not any(
            aeg.value_tainted(n.instruction.result) for n in pointer_loads
        )


class TestRealizability:
    def test_single_path_nodes_realizable(self, v1):
        body = v1.by_block["if.then.0"]
        assert v1.realizable([body[0], body[-1]])

    def test_exclusive_branches_unrealizable(self):
        aeg = _aeg("""
uint8_t a; uint8_t b;
void f(int c) {
    if (c) { a = 1; } else { b = 2; }
}
""", "f")
        then_node = aeg.by_block["if.then.0"][0]
        else_node = aeg.by_block["if.else.1"][0]
        assert not aeg.realizable([then_node, else_node])

    def test_realizability_agrees_with_coexecutability(self, v1):
        """The entry-rooted chain check and the pairwise graph criterion
        must agree for pairs."""
        import itertools

        sample = v1.memory_nodes()[:6]
        for a, b in itertools.combinations(sample, 2):
            assert v1.realizable([a, b]) == v1.co_executable(a, b)


class TestAcyclicity:
    def test_cyclic_cfg_fails_loudly(self):
        """Realizability is exact only on a DAG, so an S-AEG built from
        a function whose loop was not summarized must refuse it and
        name a block on the cycle (not crash with a bare KeyError)."""
        module = compile_c("""
uint64_t t;
void f(uint64_t y) {
    uint64_t i = 0;
    while (i < y) { t += i; i = i + 1; }
}
""")
        with pytest.raises(ModelError, match="cycle through block "
                                             "'while.(cond|body)"):
            SAEG(module.functions["f"])
