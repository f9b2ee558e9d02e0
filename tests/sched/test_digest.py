"""repro.sched.digest: normalized per-function digests.

These digests feed the result-cache key, so the properties under test
are exactly the incremental-reuse contract: stable under edits the
frontend never sees (whitespace, comments, preprocessor lines),
per-function isolated for body edits, and conservatively global for
preamble edits.  Function boundaries are the token spans the parser
records on each defined function; every token outside them is
preamble."""

import pytest

from repro.errors import ParseError
from repro.minic import compile_c
from repro.sched.digest import function_digests

TWO_FUNCTIONS = """
int table[16];

int alpha(int x) {
    return table[x & 15];
}

int beta(int y) {
    return y * 2;
}
"""


def _digests(source):
    return function_digests(compile_c(source))


def _spans(source):
    """``(texts of each defined function's span, texts outside every
    span)`` for ``source``, functions in source order."""
    module = compile_c(source)
    tokens = [t.text for t in module.tokens[:-1]]  # drop eof
    functions = sorted(module.functions.values(), key=lambda f: f.span)
    inside = {function.name: tokens[slice(*function.span)]
              for function in functions}
    covered = {i for f in functions for i in range(*f.span)}
    outside = [text for i, text in enumerate(tokens) if i not in covered]
    return inside, outside


class TestSegments:
    def test_functions_and_decls(self):
        inside, outside = _spans(TWO_FUNCTIONS)
        assert list(inside) == ["alpha", "beta"]
        assert inside["alpha"][:3] == ["int", "alpha", "("]
        assert inside["beta"][-1] == "}"
        assert outside == ["int", "table", "[", "16", "]", ";"]

    def test_struct_body_is_a_decl(self):
        inside, outside = _spans("struct pair { int a; int b; };\n"
                                 "int get(struct pair p) { return p.a; }\n")
        assert " ".join(outside) == "struct pair { int a ; int b ; } ;"
        assert inside["get"][:2] == ["int", "get"]

    def test_array_initializer_is_a_decl(self):
        inside, outside = _spans(
            "int t[2] = {1, 2};\nint f(void) { return t[0]; }")
        assert " ".join(outside) == "int t [ 2 ] = { 1 , 2 } ;"
        assert " ".join(inside["f"]) == \
            "int f ( void ) { return t [ 0 ] ; }"

    def test_prototype_is_a_decl(self):
        inside, outside = _spans("int f(int x);\nint f(int x) { return x; }")
        assert " ".join(outside) == "int f ( int x ) ;"
        assert " ".join(inside["f"]) == "int f ( int x ) { return x ; }"

    def test_struct_returning_function(self):
        source = ("struct pair { int a; int b; };\n"
                  "struct pair make(int x) {\n"
                  "    struct pair p; p.a = x; p.b = x; return p;\n"
                  "}\n"
                  "struct cell { int v; } wrap(int x) {\n"
                  "    struct cell c; c.v = x; return c;\n"
                  "}\n")
        inside, outside = _spans(source)
        assert inside["make"][:3] == ["struct", "pair", "make"]
        # A struct defined in the return type belongs to the function.
        assert inside["wrap"][:3] == ["struct", "cell", "{"]
        assert inside["wrap"][-1] == "}"
        assert " ".join(outside) == "struct pair { int a ; int b ; } ;"

    def test_unbalanced_braces_do_not_compile(self):
        for source in ("int f(void) { return 0;", "}"):
            with pytest.raises(ParseError):
                compile_c(source)


class TestBadSource:
    # A source the parser rejects never yields a module, so no digest
    # is computed for it: compile_c raises before function_digests runs.
    def test_untokenizable_source_does_not_compile(self):
        with pytest.raises(ParseError):
            compile_c('int f; "unterminated')

    def test_unsplittable_source_does_not_compile(self):
        with pytest.raises(ParseError):
            compile_c("int f(void) {")


class TestStability:
    def test_whitespace_and_comments_move_nothing(self):
        reformatted = TWO_FUNCTIONS.replace("\n", "\n\n") \
            .replace("return", "/* hot path */ return")
        assert _digests(reformatted) == _digests(TWO_FUNCTIONS)

    def test_token_split_is_not_confused_by_spacing(self):
        # "ab c" vs "a bc" must not collide: tokens are hashed with
        # separators, not concatenated.
        types = "struct a { int x; };\nstruct ab { int x; };\n"
        body = "\nint f(void) { return 0; }"
        assert _digests(types + "struct ab c;" + body) != \
            _digests(types + "struct a bc;" + body)

    def test_body_edit_moves_only_that_function(self):
        edited = TWO_FUNCTIONS.replace("y * 2", "y * 3")
        before, after = _digests(TWO_FUNCTIONS), _digests(edited)
        assert before["alpha"] == after["alpha"]
        assert before["beta"] != after["beta"]

    def test_preamble_edit_moves_every_function(self):
        edited = TWO_FUNCTIONS.replace("int table[16];", "int table[32];")
        before, after = _digests(TWO_FUNCTIONS), _digests(edited)
        assert before["alpha"] != after["alpha"]
        assert before["beta"] != after["beta"]


class TestCallClosure:
    CALLER = """
int leaf(int x) { return x + 1; }
int caller(int x) { return leaf(x); }
int bystander(int x) { return x; }
"""

    def test_callee_edit_moves_the_caller(self):
        edited = self.CALLER.replace("x + 1", "x + 2")
        before, after = _digests(self.CALLER), _digests(edited)
        assert before["leaf"] != after["leaf"]
        assert before["caller"] != after["caller"]  # inlined callee
        assert before["bystander"] == after["bystander"]

    def test_recursion_terminates(self):
        source = "int odd(int n);\n" \
                 "int even(int n) { return n == 0 || odd(n - 1); }\n" \
                 "int odd(int n) { return n != 0 && even(n - 1); }\n"
        digests = _digests(source)
        assert set(digests) == {"even", "odd"}


class TestShadowing:
    SHADOWED = ("int f(int x) { return x; }\n"
                "int f(int x) { return x + 1; }\n"
                "int g(int x) { return x * 2; }\n")

    def test_shadowed_definition_edit_moves_every_key(self):
        # The module keeps the later definition; the shadowed one lies
        # outside every span, so it is preamble and covers every key.
        edited = self.SHADOWED.replace("return x; }", "return x - 1; }", 1)
        before, after = _digests(self.SHADOWED), _digests(edited)
        assert set(before) == {"f", "g"}
        assert before["f"] != after["f"]
        assert before["g"] != after["g"]

