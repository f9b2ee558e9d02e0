"""``compile_c(source, previous=module)`` against a fresh ``compile_c``.

A recompile of an edited unit reuses the parse and lowered ``Function``
of every definition whose tokens, preamble, signatures and first
``.str`` number are unchanged.  Whatever it reuses, the module must
equal a fresh compile: ``Module`` equality, the token list, every span,
the global order (``.str.N`` numbering) and the cache digests.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.bench.suites import all_cases
from repro.bench.synthetic import generate_function
from repro.errors import ParseError
from repro.minic import compile_c
from repro.sched import worker
from repro.sched.digest import function_digests

UNIT = """\
struct pt { uint32_t x; uint32_t y; };
uint8_t table[16];
uint32_t helper(uint32_t v);

uint32_t helper(uint32_t v) { return v + table[v & 15]; }

char first(void) {
    char *s = "ab";
    return s[0];
}

uint32_t use_pt(struct pt *p) { return p->y + helper(p->x); }

char second(uint32_t i) {
    char *s = "cd";
    char *t = "efg";
    return s[i & 1] + t[0];
}

uint64_t widen(uint32_t a) { return helper(a); }

char shadow(void) { char *s = "old"; return s[0]; }
char shadow(void) { char *s = "new"; return s[1]; }

char last(void) { char *s = "xyz"; return s[2]; }
"""

#: (name, old text, new text): one edit of UNIT each.
EDITS = [
    ("string_added_before_later_functions",
     'char *s = "ab";', 'char *s = "ab"; char *u = "zz";'),
    ("string_removed_before_later_functions",
     'char *s = "ab";\n    return s[0];', "return 1;"),
    ("struct_field_changed", "uint32_t y; }", "uint64_t y; }"),
    ("prototype_changed", "uint32_t helper(uint32_t v);",
     "uint32_t helper(uint32_t w);"),
    ("callee_return_type_changed", "uint32_t helper(uint32_t v) {",
     "uint64_t helper(uint32_t v) {"),
    ("definition_added_first", "uint32_t helper(uint32_t v) {",
     "char zero(void) { char *s = \"q\"; return s[0]; }\n"
     "uint32_t helper(uint32_t v) {"),
    ("definition_added_last", "char last(void)",
     "uint32_t extra(uint32_t a) { return a; }\nchar last(void)"),
    ("definition_removed",
     "uint64_t widen(uint32_t a) { return helper(a); }\n", ""),
    ("definition_renamed", "uint64_t widen(", "uint64_t widened("),
    ("shadowed_definition_edited", '"old"', '"older"'),
    ("shadowed_definition_gains_a_string",
     'char *s = "old"; return s[0];',
     'char *s = "old"; char *u = "u"; return u[0] + s[0];'),
    ("duplicate_definition_added", "char last(void)",
     "uint64_t widen(uint32_t a) { return helper(a) + 1; }\n"
     "char last(void)"),
    ("global_added", "uint8_t table[16];",
     "uint8_t table[16];\nuint32_t counter;"),
    ("body_only_edit", "return v + table[v & 15];",
     "return v + table[v & 7];"),
    ("lines_shifted", "struct pt {", "\n\n\nstruct pt {"),
]


def assert_same(module, source: str, name: str = "") -> None:
    fresh = compile_c(source, name)
    assert module == fresh
    assert module.tokens == fresh.tokens
    assert [(f.name, f.span) for f in module.functions.values()] == \
        [(f.name, f.span) for f in fresh.functions.values()]
    assert list(module.globals) == list(fresh.globals)
    assert function_digests(module) == function_digests(fresh)


def recompile(before: str, after: str, name: str = ""):
    previous = compile_c(before, name)
    module = compile_c(after, name, previous=previous)
    assert_same(module, after, name)
    return previous, module


def reused(previous, module) -> set[str]:
    """Functions whose IR ``module`` took from ``previous``."""
    return {name for name, function in module.functions.items()
            if name in previous.functions and function.blocks
            is previous.functions[name].blocks}


@pytest.mark.parametrize("edit", EDITS, ids=[edit[0] for edit in EDITS])
def test_edit_equals_a_fresh_compile(edit):
    _, old, new = edit
    assert UNIT.count(old) == 1
    edited = UNIT.replace(old, new)
    recompile(UNIT, edited)
    recompile(edited, UNIT)


def test_unchanged_definitions_are_reused():
    previous, module = recompile(
        UNIT, UNIT.replace("return v + table[v & 15];",
                           "return v + table[v & 7];"))
    # use_pt and widen call helper, but their IR names it only through
    # its unchanged signature.
    assert reused(previous, module) == set(module.functions) - {"helper"}


def test_string_offset_change_relowers_only_string_users():
    previous, module = recompile(
        UNIT, UNIT.replace('char *s = "ab";',
                           'char *s = "ab"; char *u = "zz";'))
    assert reused(previous, module) == {"helper", "use_pt", "widen"}


def test_context_change_reuses_nothing():
    for old, new in (("uint32_t y; }", "uint64_t y; }"),
                     ("uint32_t helper(uint32_t v)",
                      "uint64_t helper(uint32_t v)"),
                     ("uint8_t table[16];", "uint8_t table[32];")):
        previous, module = recompile(UNIT, UNIT.replace(old, new))
        assert not reused(previous, module)


def test_shifted_spans_are_rebased():
    previous, module = recompile(UNIT, UNIT.replace(
        "return v + table[v & 15];",
        "uint32_t w = v;\n    return w + table[w & 15];"))
    assert reused(previous, module) == set(module.functions) - {"helper"}
    assert module.functions["last"].span != previous.functions["last"].span


def test_new_signature_reuses_nothing():
    # An unchanged body may call the new function: its call was lowered
    # with the default return type.
    previous, module = recompile(UNIT, "char zero(void) { return 0; }\n"
                                 + UNIT)
    assert not reused(previous, module)


def test_definition_defining_a_struct_is_parsed_again():
    source = ("uint32_t f(void) { struct in { uint32_t a; } v; v.a = 1; "
              "return v.a; }\n"
              "uint32_t g(struct in *p) { return p->a; }\n")
    previous, module = recompile(source, source + "uint32_t h(void) "
                                 "{ return 2; }\n")
    assert "f" not in reused(previous, module)
    # g's tokens are unchanged, but the struct it reads is not.
    previous, module = recompile(source, source.replace(
        "struct in { uint32_t a; }", "struct in { uint8_t b; uint32_t a; }"))
    assert not reused(previous, module)


def test_parse_errors_match_a_fresh_compile():
    good = UNIT
    for broken in (UNIT.replace("return p->y", "return p->y )"),
                   UNIT + "uint32_t tail(",
                   UNIT.replace("char last(void) {", "char last(void) {{")):
        previous = compile_c(good)
        with pytest.raises(ParseError) as fresh:
            compile_c(broken)
        with pytest.raises(ParseError) as again:
            compile_c(broken, previous=previous)
        assert str(again.value) == str(fresh.value)


_ACC = re.compile(r"uint64_t acc = [^;]*;")
#: Rounds of the 12 functions of the end-to-end benchmark's edited unit.
ROUNDS = (30, 17, 6, 10, 5, 2, 9, 18, 9, 10, 8, 2)


def edit_stream(count: int, seed: int = 0):
    """Sources of an editor session: one function's ``acc``
    initializer moves per request, every fourth request is unchanged."""
    functions = [generate_function(f"ossl_fn_{index:03d}", size,
                                   seed=23 + seed + index)
                 for index, size in enumerate(ROUNDS)]
    chooser = random.Random(seed)
    for number in range(count):
        if number % 4 != 3:
            index = chooser.randrange(len(functions))
            functions[index] = _ACC.sub(f"uint64_t acc = {number};",
                                        functions[index], count=1)
        yield "\n\n".join(functions)


def test_edit_stream_equals_fresh_compiles():
    previous = None
    for source in edit_stream(12):
        module = compile_c(source, "unit.c", previous=previous)
        assert_same(module, source, "unit.c")
        if previous is not None:
            assert len(reused(previous, module)) >= len(module.functions) - 1
        previous = module


def test_module_memo_compiles_against_the_latest_module():
    worker.clear_caches()
    try:
        previous = None
        for source in edit_stream(12, seed=1):
            module = worker.module_for(source, "unit.c")
            assert_same(module, source, "unit.c")
            if previous is not None:
                assert len(reused(previous, module)) >= \
                    len(module.functions) - 1
            previous = module
    finally:
        worker.clear_caches()


@pytest.mark.parametrize("case", all_cases(),
                         ids=[case.name for case in all_cases()])
def test_corpus_units_equal_fresh_compiles(case):
    with_string = ('char probe_str(uint32_t i) { char *s = "pq"; '
                   'return s[i & 1]; }\n')
    appended = case.source + "\nuint32_t probe_tail(void) { return 7; }\n"
    for edited in (with_string + case.source, appended,
                   with_string + appended):
        recompile(case.source, edited, case.name)
        recompile(edited, case.source, case.name)
