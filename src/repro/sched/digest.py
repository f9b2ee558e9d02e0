"""Function-granular source digests for incremental re-analysis.

The result cache (:mod:`repro.sched.cache`) keys every analyze item by
the *content* of the work.  Keying on the whole-module digest makes any
edit — even a comment — invalidate every function's entry.  This module
computes a **normalized per-function digest** instead, so:

- editing function ``A`` only moves ``A``'s key (and the keys of
  functions that can *reach* ``A``, since the A-CFG inlines defined
  callees — §5.1);
- whitespace, comment, and preprocessor-line edits move no key at all
  (the mini-C lexer discards all three, and the frontend never reads
  them);
- reordering or editing unrelated top-level declarations *does* move
  every key (the preamble digest is order-sensitive), which is the
  conservative direction.

The function boundaries are the parser's: ``compile_c`` keeps the token
list on the :class:`~repro.ir.Module` and each defined function's
``[start, end)`` span in it, so the tokens a key covers are exactly the
tokens that were lowered into the function.  A function's digest
covers, in order:

1. the **preamble** — every token outside the module's function spans
   (globals, struct definitions, prototypes, and a definition shadowed
   by a later one of the same name), which can change the meaning of
   any body;
2. its **own** normalized token stream (signature + body);
3. the own-streams of every *transitively referenced* defined function
   (an over-approximation of the call graph: any identifier occurrence
   counts as a potential call — safe, never unsound).
"""

from __future__ import annotations

import hashlib

from repro.ir import Module

__all__ = ["DIGEST_VERSION", "function_digests"]

# Bump when the normalization or closure rule changes: digests feed
# cache keys, so a rule change must move every address.
DIGEST_VERSION = 1


def _hash(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x1f")  # unit separator: ("ab","c") != ("a","bc")
    return digest.hexdigest()


def _normalize(tokens) -> list[str]:
    # kind:text pairs; line numbers are deliberately dropped (they never
    # reach the IR), and so are whitespace/comments/preproc (the lexer
    # already discarded them).
    return [f"{token.kind}\x00{token.text}" for token in tokens]


def function_digests(module: Module) -> dict[str, str]:
    """Map every function ``compile_c`` defined in ``module`` to its
    closure digest."""
    tokens = module.tokens
    defined = sorted((f for f in module.functions.values()
                      if f.span is not None), key=lambda f: f.span)
    own: dict[str, str] = {}
    referenced: dict[str, set[str]] = {}
    preamble_parts: list[str] = []
    position = 0
    for function in defined:
        start, end = function.span
        segment = tokens[start:end]
        own[function.name] = _hash(_normalize(segment))
        referenced[function.name] = {t.text for t in segment
                                     if t.kind == "ident"}
        preamble_parts.extend(_normalize(tokens[position:start]))
        position = end
    preamble_parts.extend(_normalize(tokens[position:-1]))  # not eof
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
