"""Shared test configuration: deterministic randomized testing.

Every explicit ``random.Random`` in the suite is constructed with a
fixed integer (or :func:`repro.bench.synthetic._stable_seed`) so
failures replay exactly.  Hypothesis is the one remaining source of
run-to-run variation — its example generation is randomized by
default — so we pin it here: the ``deterministic`` profile derives all
examples from the test function itself (``derandomize=True``), making
``pytest`` runs byte-for-byte repeatable in CI.

Set ``HYPOTHESIS_PROFILE=random`` locally to restore randomized
exploration when hunting for new counterexamples.

The daemon address variables are cleared for every test: ``clou
analyze|lint|repair`` send their requests to a daemon whenever one is
configured, so an address in the caller's environment would reroute
the in-process CLI tests.
"""

import os

import pytest

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - hypothesis is a test-only dep
    settings = None

if settings is not None:
    settings.register_profile("deterministic", derandomize=True,
                              deadline=None)
    settings.register_profile("random", deadline=None)
    settings.load_profile(
        os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))


@pytest.fixture(autouse=True)
def _no_ambient_daemon(monkeypatch):
    from repro.sched.env import SOCKET_ENV, SOCKETS_ENV

    monkeypatch.delenv(SOCKET_ENV, raising=False)
    monkeypatch.delenv(SOCKETS_ENV, raising=False)
