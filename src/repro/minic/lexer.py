"""Lexer for the mini-C frontend.

Covers the C subset the benchmarks and crypto replicas use: all the
fixed-width integer typedefs, pointers, arrays, structs, control flow,
and the full expression operator set (including compound assignment and
short-circuit logic).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import ParseError

KEYWORDS = {
    "void", "char", "short", "int", "long", "unsigned", "signed",
    "const", "static", "register", "volatile", "inline", "extern",
    "struct", "union", "enum", "typedef",
    "return", "if", "else", "while", "for", "do", "break", "continue",
    "sizeof", "goto", "switch", "case", "default",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "int8_t", "int16_t", "int32_t", "int64_t",
    "size_t", "ssize_t", "uintptr_t", "intptr_t", "bool",
}

# Longest-first operator list so the regex prefers `<<=` over `<<` over `<`.
OPERATORS = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<line_comment>//[^\n]*)
  | (?P<block_comment>/\*.*?\*/)
  | (?P<preproc>\#[^\n]*)
  | (?P<number>0[xX][0-9a-fA-F]+[uUlL]*|\d+[uUlL]*)
  | (?P<char>'(\\.|[^'\\])')
  | (?P<string>"(\\.|[^"\\])*")
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<op>%s)
    """
    % "|".join(re.escape(op) for op in OPERATORS),
    re.VERBOSE | re.DOTALL,
)

_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34}


class Token(NamedTuple):
    """One token.  A named tuple, which is quicker to build and smaller
    than a frozen dataclass: a unit's token list is kept with its module
    (the digests and the definition memo read it)."""

    kind: str  # 'number' | 'char' | 'string' | 'ident' | 'keyword' | 'op' | 'eof'
    text: str
    value: int | str | None
    line: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r})"


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    position = 0
    line = 1
    for match in _TOKEN_RE.finditer(source):
        if match.start() != position:
            break  # an unmatched character before this match
        position = match.end()
        text = match.group()
        kind = match.lastgroup
        if kind == "ident":
            tokens.append(Token("keyword" if text in KEYWORDS else "ident",
                                text, text, line))
            continue
        if kind == "op":
            tokens.append(Token("op", text, text, line))
            continue
        if kind == "number":
            tokens.append(Token("number", text, int(text.rstrip("uUlL"), 0),
                                line))
            continue
        if kind == "char":
            body = text[1:-1]
            if body.startswith("\\"):
                value = _ESCAPES.get(body[1], ord(body[1]))
            else:
                value = ord(body)
            tokens.append(Token("number", text, value, line))
        elif kind == "string":
            tokens.append(Token("string", text, text[1:-1], line))
        line += text.count("\n")  # whitespace, comments, strings, chars
    if position < len(source):
        raise ParseError(f"unexpected character {source[position]!r}", line)
    tokens.append(Token("eof", "", None, line))
    return tokens
