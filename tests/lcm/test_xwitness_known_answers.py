"""Known answers for explicit xstate-witness enumeration (§3.2.2).

Each program's first TSO-consistent execution (no speculation) is
completed by ``xwitness_candidates`` under the direct-mapped policy and
the x86 confidentiality predicate.  The expected witness counts and
signature digests were recorded from an independent SAT encoding of the
same witness space (rfx edges and access kinds as boolean variables,
models enumerated with blocking clauses), which agreed with the
enumeration on every program below before it was retired.
"""

import hashlib
import json

import pytest

from repro.lcm import confidentiality_x86, xwitness_candidates
from repro.lcm.xstate import DirectMappedPolicy
from repro.litmus import elaborate, parse_program
from repro.mcm import TSO, consistent_executions

KNOWN = [
    ("r1 = load x", 3,
     "1518df3234433f22cea08b0c2a8f892a4cac20de30ca04028e6c9166c65e24ff"),
    ("store x, 1\nr1 = load x", 10,
     "9de8e8bd615948a86508b162108497c393876d772e510a869a0787da339031e2"),
    ("r1 = load x\nr2 = load x", 13,
     "542a5f7699532ca9a25943fcdfa90a70397459205940c6f65ecf3c87f5a60511"),
    ("store x, 1\nstore x, 2\nr1 = load x", 42,
     "404bda1f2dd1c8af5edac4cf523a33bf9b02a228502c72b18e02798154f0aa1d"),
    ("store x, 1\nstore x, 2\nr1 = load x\nr2 = load x", 342,
     "e0dfa62c4a7c42b3862e760f8d8b63edbc84288855a91d7c22d7a5ecdd34f4a6"),
    ("store x, 1\nstore x, 2\nr1 = load x\nr2 = load x\nr3 = load x", 3210,
     "b18b10c071d228c69b5742d1614914c2f3a56cbcee716ba810aa862a81fc4db9"),
]


def _signature(execution):
    """The witness modulo cox (forced under a total tfo): its rfx edges
    and the access kind of each xstate event, by label."""
    xw = execution.xwitness
    return tuple(sorted(
        [("rfx", a.label, b.label) for a, b in xw.rfx]
        + [("kind", e.label, k.value) for e, k in xw.kinds.items()]
    ))


def _signatures(source):
    (structure,) = elaborate(parse_program(source, name="t"))
    execution = consistent_executions(structure, TSO)[0]
    return [_signature(candidate) for candidate in xwitness_candidates(
        execution, DirectMappedPolicy(), confidentiality_x86)]


IDS = [f"{count}-witnesses" for _, count, _ in KNOWN]


@pytest.mark.parametrize("source,count,digest", KNOWN, ids=IDS)
def test_enumeration_count_matches_recorded(source, count, digest):
    """As many witnesses as recorded, none enumerated twice."""
    signatures = _signatures(source)
    assert len(signatures) == len(set(signatures)) == count


@pytest.mark.parametrize("source,count,digest", KNOWN, ids=IDS)
def test_enumeration_matches_recorded_witness_space(source, count, digest):
    """The same witness set as recorded, by digest of its signatures."""
    encoded = json.dumps(sorted(set(_signatures(source)))).encode()
    assert hashlib.sha256(encoded).hexdigest() == digest
