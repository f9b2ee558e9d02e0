"""Tests for A-CFG construction: loop summarization and inlining (§5.1)."""

import pytest

from repro.clou import build_acfg, unroll_loops
from repro.clou.acfg import _copy_function
from repro.errors import AnalysisError
from repro.ir import Call, Load, Module, Store, verify_function
from repro.minic import compile_c


class TestLoopSummarization:
    def test_two_unrollings(self):
        module = compile_c("""
uint8_t a[64];
uint64_t f(uint64_t n) {
    uint64_t acc = 0;
    for (uint64_t i = 0; i < n; i++) {
        acc += a[i];
    }
    return acc;
}
""")
        acfg = build_acfg(module, "f")
        assert acfg.function.is_dag()
        verify_function(acfg.function)
        # The loop body load appears exactly twice (two unrollings).
        body_loads = [
            ins for ins in acfg.function.all_instructions()
            if isinstance(ins, Load) and "gep" in str(ins.pointer)
        ]
        assert len(body_loads) == 2

    def test_nested_loops(self):
        module = compile_c("""
uint8_t m[8][8];
uint64_t f(void) {
    uint64_t acc = 0;
    for (int i = 0; i < 8; i++) {
        for (int j = 0; j < 8; j++) {
            acc += m[i][j];
        }
    }
    return acc;
}
""")
        acfg = build_acfg(module, "f")
        assert acfg.function.is_dag()
        verify_function(acfg.function)

    def test_while_with_continue(self):
        module = compile_c("""
uint64_t f(uint64_t n) {
    uint64_t acc = 0;
    while (n) {
        n = n - 1;
        if (n == 3) { continue; }
        acc += n;
    }
    return acc;
}
""")
        acfg = build_acfg(module, "f")
        assert acfg.function.is_dag()
        verify_function(acfg.function)

    def test_straight_line_unchanged(self):
        module = compile_c("uint64_t f(uint64_t x) { return x + 1; }")
        before = module.functions["f"].instruction_count()
        acfg = build_acfg(module, "f")
        assert acfg.instruction_count == before

    def test_original_module_not_mutated(self):
        module = compile_c("""
uint64_t f(uint64_t n) {
    uint64_t acc = 0;
    while (n) { n--; acc++; }
    return acc;
}
""")
        before = module.functions["f"].instruction_count()
        build_acfg(module, "f")
        assert module.functions["f"].instruction_count() == before
        assert not module.functions["f"].is_dag()


class TestInlining:
    def test_simple_call_inlined(self):
        module = compile_c("""
static uint64_t helper(uint64_t v) { return v * 2; }
uint64_t f(uint64_t x) { return helper(x) + 1; }
""")
        acfg = build_acfg(module, "f")
        calls = [i for i in acfg.function.all_instructions()
                 if isinstance(i, Call)]
        assert not calls
        assert "helper" in acfg.inlined_functions

    def test_nested_calls_inlined(self):
        module = compile_c("""
static uint64_t inner(uint64_t v) { return v + 1; }
static uint64_t outer(uint64_t v) { return inner(v) * 2; }
uint64_t f(uint64_t x) { return outer(x); }
""")
        acfg = build_acfg(module, "f")
        assert not any(isinstance(i, Call)
                       for i in acfg.function.all_instructions())

    def test_recursion_inlined_twice_then_cut(self):
        module = compile_c("""
uint64_t fact(uint64_t n) {
    if (n == 0) { return 1; }
    return n * fact(n - 1);
}
""")
        acfg = build_acfg(module, "fact")
        residual = [i for i in acfg.function.all_instructions()
                    if isinstance(i, Call) and i.callee == "fact"]
        # The recursion bottoms out in residual (havoc) calls.
        assert residual
        assert acfg.function.is_dag()

    def test_undefined_call_kept(self):
        module = compile_c("""
int memcmp(void *a, void *b, size_t n);
uint8_t buf[8];
int f(void) { return memcmp(buf, buf, 8); }
""")
        acfg = build_acfg(module, "f")
        calls = [i for i in acfg.function.all_instructions()
                 if isinstance(i, Call)]
        assert len(calls) == 1

    def test_void_callee(self):
        module = compile_c("""
uint8_t out[4];
static void side(uint8_t v) { out[0] = v; }
void f(uint8_t x) { side(x); }
""")
        acfg = build_acfg(module, "f")
        assert not any(isinstance(i, Call)
                       for i in acfg.function.all_instructions())
        assert any(isinstance(i, Store)
                   for i in acfg.function.all_instructions())

    def test_call_in_loop_inlined_per_iteration(self):
        module = compile_c("""
static uint64_t helper(uint64_t v) { return v + 1; }
uint64_t f(uint64_t n) {
    uint64_t acc = 0;
    for (uint64_t i = 0; i < n; i++) {
        acc = helper(acc);
    }
    return acc;
}
""")
        acfg = build_acfg(module, "f")
        assert acfg.function.is_dag()
        assert not any(isinstance(i, Call)
                       for i in acfg.function.all_instructions())

    def test_unknown_function_rejected(self):
        module = compile_c("void f(void) {}")
        with pytest.raises(AnalysisError, match="no function"):
            build_acfg(module, "nope")


def _too_many_loops(count=65):
    """A function with more sequential loops than loop summarization
    handles (``unroll_loops``' 64 iterations)."""
    loops = "".join(
        f"    for (uint64_t i{k} = 0; i{k} < n; i{k}++) {{ acc += i{k}; }}\n"
        for k in range(count))
    return ("static uint64_t unsummarizable(uint64_t n) {\n"
            "    uint64_t acc = 0;\n" + loops + "    return acc;\n}\n")


class TestCallClosure:
    def test_uncalled_function_does_not_fail_target(self):
        """Only the target's call-graph closure is summarized: a function
        it never calls cannot make its A-CFG fail."""
        module = compile_c(_too_many_loops() + """
uint64_t f(uint64_t x) { return x + 1; }
uint64_t g(uint64_t n) { return unsummarizable(n); }
""")
        assert build_acfg(module, "f").function.is_dag()
        for name in ("unsummarizable", "g"):
            with pytest.raises(AnalysisError, match="too complex"):
                build_acfg(module, name)


def _inline_restarting(function, module):
    """Reference inliner: after every splice, rescan from block 0."""
    from repro.clou.acfg import RECURSION_INLINE_LIMIT, _inline_one_call

    counter = 0
    progress = True
    while progress:
        progress = False
        for block_index, block in enumerate(function.blocks):
            for ins_index, ins in enumerate(block.instructions):
                callee = module.functions.get(getattr(ins, "callee", None))
                if not isinstance(ins, Call) or callee is None:
                    continue
                chain = getattr(ins, "inline_chain", ())
                if chain.count(ins.callee) >= RECURSION_INLINE_LIMIT:
                    continue
                _inline_one_call(function, block_index, ins_index, callee,
                                 chain + (ins.callee,), counter)
                counter += 1
                progress = True
                break
            if progress:
                break
    return function


@pytest.mark.parametrize("case", ["chacha20", "hmac", "secretbox"])
def test_inlining_resumes_like_a_full_rescan(case):
    """``inline_calls`` resumes its scan after each splice; the result,
    labels and instruction order included, equals rescanning from the
    first block every time."""
    from repro.bench.suites import by_name
    from repro.clou import inline_calls

    def render(function):
        return [(block.label, [str(ins) for ins in block.instructions])
                for block in function.blocks]

    module = compile_c(by_name(case).source)
    for function in module.public_functions():
        summarized = Module(name=module.name, functions={
            name: unroll_loops(_copy_function(fn))
            for name, fn in module.functions.items()},
            globals=module.globals, structs=module.structs)
        fresh = _copy_function(summarized.functions[function.name])
        reference = _copy_function(summarized.functions[function.name])
        assert render(inline_calls(fresh, summarized)) == \
            render(_inline_restarting(reference, summarized))
        assert fresh.instruction_count() == reference.instruction_count()
