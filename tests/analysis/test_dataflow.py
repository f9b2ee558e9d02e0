"""Tests for the dataflow framework: CFG orderings and reaching stores
(the -O0 slot model)."""

from repro.analysis import BlockCFG, ReachingStores, resolve_slot, solve
from repro.analysis.reaching import definitions
from repro.ir import Load, Store
from repro.minic import compile_c


def _function(source, name="f"):
    return compile_c(source).functions[name]


def _loads(function):
    return [(block.label, index, ins)
            for block in function.blocks
            for index, ins in enumerate(block.instructions)
            if isinstance(ins, Load)]


def _stores_reaching(function, label, load):
    """``ReachingStores.stores_for`` at ``load``, from the solved state
    replayed through its block."""
    problem = ReachingStores(function)
    solution = solve(function, problem)
    state = next(state for ins, state in solution.instruction_states(label)
                 if ins is load)
    return problem.stores_for(load, state)


DIAMOND = """
uint64_t f(uint64_t x) {
    uint64_t r = 1;
    if (x) { r = 2; } else { r = 3; }
    return r;
}
"""


class TestBlockCFG:
    def test_orderings_cover_reachable_blocks(self):
        function = _function(DIAMOND)
        cfg = BlockCFG(function)
        rpo = cfg.reverse_postorder()
        assert rpo[0] == cfg.entry
        assert set(rpo) == {block.label for block in function.blocks}
        assert list(reversed(rpo)) == cfg.postorder()


class TestReachingStores:
    def test_strong_update_kills_previous_store(self):
        function = _function("""
uint64_t f(void) {
    uint64_t a = 1;
    a = 2;
    return a;
}
""")
        label, index, load = _loads(function)[-1]
        facts = _stores_reaching(function, label, load)
        assert facts is not None
        assert len(facts) == 1          # only `a = 2` reaches

    def test_branch_merges_stores(self):
        function = _function(DIAMOND)
        label, index, load = next(
            x for x in _loads(function) if "r.addr" in x[2].pointer.name)
        facts = _stores_reaching(function, label, load)
        assert facts is not None
        # r = 2 and r = 3 both reach; the dominated r = 1 is killed on
        # both paths.
        assert len(facts) == 2

    def test_uninitialized_slot_returns_none(self):
        function = _function("""
uint64_t f(uint64_t x) {
    uint64_t a;
    if (x) { a = 1; }
    return a;
}
""")
        label, index, load = next(
            x for x in _loads(function) if "a.addr" in x[2].pointer.name)
        assert _stores_reaching(function, label, load) is None

    def test_unknown_pointer_store_clobbers(self):
        function = _function("""
uint8_t *p;
uint64_t f(void) {
    uint64_t a = 1;
    p[0] = 9;
    return a;
}
""")
        label, index, load = [x for x in _loads(function)
                              if x[2].result.type.__class__.__name__
                              != "PointerType"][-1]
        assert _stores_reaching(function, label, load) is None

    def test_resolve_slot_sees_through_gep(self):
        function = _function("""
uint64_t f(uint64_t i) {
    uint64_t a[4];
    a[i] = 1;
    return a[i];
}
""")
        defs = definitions(function)
        stores = [ins for block in function.blocks
                  for ins in block.instructions if isinstance(ins, Store)]
        element_refs = [resolve_slot(s.pointer, defs) for s in stores
                        if not resolve_slot(s.pointer, defs).whole]
        assert element_refs
        assert all(ref.is_alloca for ref in element_refs)

    def test_global_store_does_not_disturb_slots(self):
        function = _function("""
uint64_t g;
uint64_t f(void) {
    uint64_t a = 1;
    g = 5;
    return a;
}
""")
        label, index, load = _loads(function)[-1]
        facts = _stores_reaching(function, label, load)
        assert facts is not None and len(facts) == 1
