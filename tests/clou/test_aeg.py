"""Tests for the S-AEG: ordering, windows, deps, taint, rf (§5.2-§5.3)."""

import pytest

from repro.clou import SAEG, build_acfg
from repro.errors import ModelError
from repro.ir import (
    I1,
    I64,
    U64,
    VOID,
    Alloca,
    Argument,
    ArrayType,
    BasicBlock,
    BinOp,
    Branch,
    Constant,
    FenceInstr,
    Function,
    GetElementPtr,
    GlobalRef,
    Jump,
    Load,
    Ret,
    Store,
    Temp,
    pointer_to,
)
from repro.minic import compile_c
from tests.clou.saeg_reference import assert_same_build
from tests.clou.window_reference import min_distance

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
        assert min_distance(v1, nodes[0], nodes[3]) == 2

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
            expected = min_distance(v1, node, anchor)
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


# ----------------------------------------------------------------------
# Construction edge cases, each checked against the original algorithms
# ----------------------------------------------------------------------

PTR = pointer_to(U64)


def _temp(name, type_=U64):
    return Temp(name, type_)


def _global(name, type_=U64):
    return GlobalRef(name, pointer_to(type_))


def _load(name, pointer, type_=U64):
    return Load(pointer=pointer, result=_temp(name, type_))


def _add(name, lhs, rhs=Constant(1, U64)):
    return BinOp(op="add", lhs=lhs, rhs=rhs, result=_temp(name))


def _straight(instructions, **kwargs):
    """Build one straight-line block with both S-AEG implementations and
    assert they agree; returns the new S-AEG."""
    function = Function(name="f", params=[("p", PTR)], return_type=VOID,
                        blocks=[BasicBlock("entry", [*instructions, Ret()])])
    return assert_same_build(function, **kwargs)


def _pairs(aeg):
    """rf as (stored value or pointer text, loaded temp) pairs."""
    return [(str(store.instruction.pointer), load.instruction.result.name)
            for store, load in aeg.rf]


def _sources(aeg, name):
    return {(aeg.node_of(dep.source).instruction.result.name, dep.store_hops)
            for dep in aeg.deps[name]}


def _accumulate(count):
    """``count`` global loads summed into %acN: acN's chain is capped."""
    body = [_load(f"x{i}", _global(f"g{i}")) for i in range(count)]
    body.append(_add("ac1", _temp("x0"), _temp("x1")))
    body.extend(_add(f"ac{i}", _temp(f"ac{i - 1}"), _temp(f"x{i}"))
                for i in range(2, count))
    return body


class TestBuildEdgeCases:
    def test_chain_longer_than_the_round_limit(self):
        """Each hop stores a register value, so it needs its own round:
        four rounds carry the origin four hops and no further."""
        body = [_load("l0", _global("A"))]
        previous = _temp("l0")
        for hop in range(1, 7):
            body += [Store(value=previous, pointer=_global(f"s{hop}")),
                     _load(f"l{hop}", _global(f"s{hop}")),
                     _add(f"a{hop}", _temp(f"l{hop}"))]
            previous = _temp(f"a{hop}")
        aeg = _straight(body)
        assert ("l0", 1) in _sources(aeg, "l1")
        assert ("l0", 4) in _sources(aeg, "l4")
        assert ("l0", 4) in _sources(aeg, "a4")
        for name in ("l5", "l6"):
            assert not any(source == "l0" for source, _ in
                           _sources(aeg, name))

    def test_direct_reloads_finish_within_the_round(self):
        """Storing a loaded value directly needs no register pass: each
        rf pair sees the updates of the pairs before it, so after the
        register hop %a1 (round two) the rest of the chain completes in
        that same round."""
        body = [_load("l0", _global("A")),
                Store(value=_temp("l0"), pointer=_global("s1")),
                _load("l1", _global("s1")),
                _add("a1", _temp("l1"))]
        previous = _temp("a1")
        for hop in range(2, 7):
            body += [Store(value=previous, pointer=_global(f"s{hop}")),
                     _load(f"l{hop}", _global(f"s{hop}"))]
            previous = _temp(f"l{hop}")
        aeg = _straight(body)
        assert ("l0", 6) in _sources(aeg, "l6")

    def test_late_taint_crosses_reloads_within_its_round(self):
        """Round three's first change is taint on %m1: every chain is
        already capped, so round two changed nothing downstream.  The
        pairs after it must still see that taint within round three."""
        def slot(name):
            return _temp(name, PTR)

        body = [Alloca(result=slot(name), allocated_type=U64)
                for name in ("w1s", "w2s", "m1s", "m2s", "m3s", "m4s",
                             *(f"k{i}s" for i in range(32)))]
        # %ac31 carries 32 deps and no taint: %b2's chain is capped.
        body += [_load(f"x{i}", slot(f"k{i}s")) for i in range(32)]
        body += _accumulate(32)[32:]
        body += [Store(value=Argument("p", PTR), pointer=slot("w1s")),
                 _load("w1", slot("w1s")),
                 _add("b1", _temp("w1")),
                 Store(value=_temp("b1"), pointer=slot("w2s")),
                 _load("w2", slot("w2s")),
                 _add("b2", _temp("ac31"), _temp("w2"))]
        previous = _temp("b2")
        for hop in range(1, 5):
            body += [Store(value=previous, pointer=slot(f"m{hop}s")),
                     _load(f"m{hop}", slot(f"m{hop}s"))]
            previous = _temp(f"m{hop}")
        aeg = _straight(body)
        assert len(aeg.deps["b2"]) == 32
        assert all(aeg.taint[f"m{hop}"] for hop in range(1, 5))

    def test_capped_chain_keeps_insertion_order(self):
        body = _accumulate(40)
        body += [Store(value=_temp("ac39"), pointer=_global("out")),
                 _load("r", _global("out"))]
        aeg = _straight(body)
        loads = {node.instruction.result.name: node.nid
                 for node in aeg.loads()}
        assert [dep.source for dep in aeg.deps["ac39"]] == \
            [loads[f"x{i}"] for i in range(32)]
        # The reload's own head first, then the first 31 hopped heads.
        assert [(dep.source, dep.store_hops) for dep in aeg.deps["r"]] == \
            [(loads["r"], 0)] + [(loads[f"x{i}"], 1) for i in range(31)]

    @pytest.mark.parametrize("capped", [False, True])
    def test_stale_register_node_after_a_quiet_round(self, capped):
        """%y reads %x before %x is defined.  %x grows in round one's
        register pass, after %y ran, so %y is stale when round two
        changes nothing.  The full re-run still counted the capped
        %acc->%r pair as a change and ran one more register pass; with
        an uncapped pair it stopped and left %y stale."""
        count = 40 if capped else 3
        last = f"ac{count - 1}"
        body = [_add("y", _temp("x"))]
        body += _accumulate(count)
        body += [Store(value=_temp(last), pointer=_global("out")),
                 _load("r", _global("out")),
                 _add("x", _temp("r"))]
        aeg = _straight(body)
        assert ("x0", 1) in _sources(aeg, "x")
        assert (("x0", 1) in _sources(aeg, "y")) == capped

    def test_distinct_allocas_never_pair(self):
        a, b = _temp("a", PTR), _temp("b", PTR)
        aeg = _straight([
            Alloca(result=a, allocated_type=U64),
            Alloca(result=b, allocated_type=U64),
            Store(value=Constant(1, U64), pointer=a),
            Store(value=Constant(2, U64), pointer=b),
            _load("v", b),
        ])
        assert _pairs(aeg) == [("%b", "v")]

    def test_arg_and_global_pair(self):
        aeg = _straight([
            Store(value=Constant(1, U64), pointer=_global("g")),
            Store(value=Constant(2, U64), pointer=_global("h")),
            _load("v", Argument("p", PTR)),
            Store(value=Constant(3, U64), pointer=Argument("p", PTR)),
            _load("w", _global("g")),
        ])
        assert _pairs(aeg) == [("@g", "v"), ("@h", "v"), ("@g", "w"),
                               ("%p", "w")]

    def test_unknown_pairs_with_everything(self):
        slot = _temp("slot", PTR)
        q = _temp("q", PTR)
        aeg = _straight([
            Alloca(result=slot, allocated_type=U64),
            _load("q", _global("gp", PTR), PTR),
            Store(value=Constant(1, U64), pointer=q),
            _load("s", slot),
            _load("a", Argument("p", PTR)),
            _load("g", _global("g")),
            Store(value=Constant(2, U64), pointer=slot),
            Store(value=Constant(3, U64), pointer=Argument("p", PTR)),
            Store(value=Constant(4, U64), pointer=_global("g")),
            _load("u", q),
        ])
        assert _pairs(aeg) == [("%q", "s"), ("%q", "a"), ("%q", "g"),
                               ("%q", "u"), ("%slot", "u"), ("%p", "u"),
                               ("@g", "u")]

    def test_constant_offsets_split_one_base(self):
        array = GlobalRef("arr", pointer_to(ArrayType(U64, 8)))

        def element(name, index):
            return GetElementPtr(base=array, indices=(Constant(0, I64), index),
                                 element=U64, result=_temp(name, PTR))

        aeg = _straight([
            element("e1", Constant(1, I64)),
            element("e2", Constant(2, I64)),
            _load("i", _global("n")),
            element("ei", _temp("i")),
            Store(value=Constant(1, U64), pointer=_temp("e1", PTR)),
            _load("v", _temp("e2", PTR)),
            Store(value=Constant(2, U64), pointer=_temp("ei", PTR)),
            _load("w", _temp("e2", PTR)),
        ])
        # [0][1] vs [0][2] is NO; the data-dependent [0][⊤] is MAY.
        assert _pairs(aeg) == [("%ei", "w")]

    def test_rf_window_boundary(self):
        def stores_then_load(gap):
            return [Store(value=Constant(1, U64), pointer=_global("g")),
                    *(_add(f"f{i}", Constant(0, U64)) for i in range(gap)),
                    _load("v", _global("g"))]

        # A store at position load - rf_window is in the window; one
        # with rf_window instructions strictly between it and the load
        # is not.
        assert _pairs(_straight(stores_then_load(3), rf_window=4)) == \
            [("@g", "v")]
        assert _pairs(_straight(stores_then_load(4), rf_window=4)) == []
