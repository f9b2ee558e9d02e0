"""Reference: the top-level token splitter that computed function
digests before the parser recorded each definition's token span.

It re-implements the mini-C top-level grammar on the raw token stream
(declarations end at a depth-0 ``;``; a depth-0 ``{`` after ``)`` opens
a function body) and returns ``None`` for anything it cannot classify.
``tests/sched/test_digest_differential.py`` requires
:func:`repro.sched.digest.function_digests` to give the same digests on
every corpus source the splitter accepts.
"""

from __future__ import annotations

import hashlib

from repro.errors import ParseError
from repro.minic.lexer import Token, tokenize

__all__ = ["function_digests"]

DIGEST_VERSION = 1


def _hash(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x1f")  # unit separator: ("ab","c") != ("a","bc")
    return digest.hexdigest()


def _normalize(tokens: list[Token]) -> list[str]:
    # kind:text pairs; line numbers are deliberately dropped (they never
    # reach the IR), and so are whitespace/comments/preproc (the lexer
    # already discarded them).
    return [f"{token.kind}\x00{token.text}" for token in tokens]


def _segments(tokens: list[Token]):
    """Split a top-level token stream into ``("function", name, toks)``
    and ``("decl", None, toks)`` segments, or ``None`` if the stream
    does not fit the mini-C top-level shape."""
    segments = []
    current: list[Token] = []
    brace = 0
    in_function_body = False
    previous: Token | None = None
    for token in tokens:
        if token.kind == "eof":
            break
        current.append(token)
        if token.kind == "op" and token.text == "{":
            if brace == 0:
                # In the mini-C grammar a depth-0 brace after `)` can
                # only open a function body; every other depth-0 brace
                # (struct body, initializer) belongs to a declaration
                # that will end at its `;`.
                in_function_body = (previous is not None
                                    and previous.kind == "op"
                                    and previous.text == ")")
            brace += 1
        elif token.kind == "op" and token.text == "}":
            brace -= 1
            if brace < 0:
                return None
            if brace == 0 and in_function_body:
                name = _function_name(current)
                if name is None:
                    return None
                segments.append(("function", name, current))
                current = []
                in_function_body = False
        elif token.kind == "op" and token.text == ";" and brace == 0:
            segments.append(("decl", None, current))
            current = []
        previous = token
    if brace != 0:
        return None
    if current:
        # Trailing tokens that close no construct: treat as preamble so
        # they still affect every key.
        segments.append(("decl", None, current))
    return segments


def _function_name(segment: list[Token]) -> str | None:
    """The identifier immediately before the first ``(`` — the
    declarator name in the mini-C grammar (params contain no parens)."""
    for index, token in enumerate(segment):
        if token.kind == "op" and token.text == "(":
            if index and segment[index - 1].kind == "ident":
                return segment[index - 1].text
            return None
    return None


def function_digests(source: str, tokens: list[Token] | None = None
                     ) -> dict[str, str] | None:
    """Map every defined function to its closure digest, or ``None``
    when the source cannot be split."""
    if tokens is None:
        try:
            tokens = tokenize(source)
        except ParseError:
            return None
    segments = _segments(tokens)
    if segments is None:
        return None
    own: dict[str, str] = {}
    referenced: dict[str, set[str]] = {}
    preamble_parts: list[str] = []
    for kind, name, segment in segments:
        if kind == "function":
            if name in own:
                return None  # duplicate definition: not valid mini-C
            own[name] = _hash(_normalize(segment))
            referenced[name] = {t.text for t in segment if t.kind == "ident"}
        else:
            preamble_parts.extend(_normalize(segment))
    preamble = _hash(preamble_parts)
    digests: dict[str, str] = {}
    for name in own:
        reachable: set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in reachable:
                continue
            reachable.add(current)
            stack.extend(callee for callee in referenced[current]
                         if callee in own and callee not in reachable)
        dependencies = sorted(reachable - {name})
        digests[name] = _hash(
            ["v%d" % DIGEST_VERSION, "preamble", preamble, "self", own[name]]
            + [part for dep in dependencies for part in (dep, own[dep])])
    return digests
