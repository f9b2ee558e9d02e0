"""repro.sched.digest: normalized per-function digests.

These digests feed the result-cache key, so the properties under test
are exactly the incremental-reuse contract: stable under edits the
frontend never sees (whitespace, comments, preprocessor lines),
per-function isolated for body edits, and conservatively global for
preamble edits.  Malformed input must degrade to ``None`` (module
granularity), never to a wrong split."""

from repro.minic.lexer import tokenize
from repro.sched.digest import _segments, function_digests

TWO_FUNCTIONS = """
int table[16];

int alpha(int x) {
    return table[x & 15];
}

int beta(int y) {
    return y * 2;
}
"""


def _split(source):
    return _segments(tokenize(source))


class TestSegments:
    def test_functions_and_decls(self):
        kinds = [(kind, name) for kind, name, _ in _split(TWO_FUNCTIONS)]
        assert kinds == [("decl", None), ("function", "alpha"),
                         ("function", "beta")]

    def test_struct_body_is_a_decl(self):
        segments = _split("struct pair { int a; int b; };\n"
                          "int get(struct pair p) { return p.a; }\n")
        assert [(k, n) for k, n, _ in segments] == \
            [("decl", None), ("function", "get")]

    def test_array_initializer_is_a_decl(self):
        segments = _split("int t[2] = {1, 2};\nint f(void) { return t[0]; }")
        assert [(k, n) for k, n, _ in segments] == \
            [("decl", None), ("function", "f")]

    def test_prototype_is_a_decl(self):
        segments = _split("int f(int x);\nint f(int x) { return x; }")
        assert [(k, n) for k, n, _ in segments] == \
            [("decl", None), ("function", "f")]

    def test_unbalanced_braces_give_none(self):
        assert _split("int f(void) { return 0;") is None
        assert _split("}") is None


class TestStability:
    def test_whitespace_and_comments_move_nothing(self):
        reformatted = TWO_FUNCTIONS.replace("\n", "\n\n") \
            .replace("return", "/* hot path */ return")
        assert function_digests(reformatted) == \
            function_digests(TWO_FUNCTIONS)

    def test_token_split_is_not_confused_by_spacing(self):
        # "int x" vs "in tx" must not collide: tokens are hashed with
        # separators, not concatenated.
        body = "\nint f(void) { return 0; }"
        assert function_digests("int ab c;" + body) != \
            function_digests("int a bc;" + body)

    def test_body_edit_moves_only_that_function(self):
        edited = TWO_FUNCTIONS.replace("y * 2", "y * 3")
        before, after = function_digests(TWO_FUNCTIONS), \
            function_digests(edited)
        assert before["alpha"] == after["alpha"]
        assert before["beta"] != after["beta"]

    def test_preamble_edit_moves_every_function(self):
        edited = TWO_FUNCTIONS.replace("int table[16];", "int table[32];")
        before, after = function_digests(TWO_FUNCTIONS), \
            function_digests(edited)
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
        before, after = function_digests(self.CALLER), \
            function_digests(edited)
        assert before["leaf"] != after["leaf"]
        assert before["caller"] != after["caller"]  # inlined callee
        assert before["bystander"] == after["bystander"]

    def test_recursion_terminates(self):
        source = "int odd(int n);\n" \
                 "int even(int n) { return n == 0 || odd(n - 1); }\n" \
                 "int odd(int n) { return n != 0 && even(n - 1); }\n"
        digests = function_digests(source)
        assert set(digests) == {"even", "odd"}


class TestFallback:
    def test_untokenizable_source_is_none(self):
        assert function_digests('int f; "unterminated') is None

    def test_unsplittable_source_is_none(self):
        assert function_digests("int f(void) {") is None

    def test_duplicate_definition_is_none(self):
        assert function_digests(
            "int f(void) { return 0; }\nint f(void) { return 1; }") is None
