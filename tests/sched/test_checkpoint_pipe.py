"""The checkpoint stream: the engine emits deltas, each witness crosses
the worker pipe once per attempt, and :func:`_fold` rebuilds every full
checkpoint, in the pool's parent and on the serial path alike.

``_worker_loop`` runs in-process over a fake connection, on a
witness-heavy item (hmac under pht: 443 candidates, 5000 witnesses), so
the messages are exactly what a pool worker would send.  The crash
tests kill an item late, after witnesses exist, so the fold runs with
``base > 0`` both within an attempt and across a resume.
"""

import os
import pickle
from collections import deque

import pytest

from repro.clou import ClouConfig
from repro.clou.serialize import function_report_dict, witness_dict
from repro.sched import AnalysisRequest, ClouSession
from repro.sched.scheduler import _fold, _worker_loop
from repro.sched.worker import execute_item

HMAC = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro",
                    "bench", "corpus", "crypto", "hmac.c")

with open(HMAC) as _handle:
    SOURCE = _handle.read()

PAYLOAD = {"kind": "analyze", "source": SOURCE, "name": "hmac.c",
           "function": "crypto_auth_hmac", "engine": "pht",
           "config": ClouConfig().to_dict()}

#: The keys of a folded checkpoint, in the order the engine writes them.
KEYS = ["cursor", "icursor", "total", "candidates", "pruned", "skipped",
        "witnesses"]


class _FakeConn:
    """The child's end of the pipe: a scripted inbox, and every sent
    message pickled and unpickled as the real pipe would."""

    def __init__(self, *messages):
        self.inbox = deque(messages)
        self.sent = []

    def recv(self):
        if not self.inbox:
            raise EOFError
        return self.inbox.popleft()

    def send(self, message):
        self.sent.append(pickle.loads(pickle.dumps(message)))


def _pipe_stream(resume=None):
    """(checkpoint messages, terminal message) of one dispatch."""
    conn = _FakeConn((0, PAYLOAD, resume), None)
    _worker_loop(execute_item, conn)
    *checkpoints, terminal = conn.sent
    assert all(status == "checkpoint" for _, status, _ in checkpoints)
    return [value for _, _, value in checkpoints], terminal


def _messages(resume=None):
    """The messages the engine hands its checkpoint callable."""
    messages = []
    execute_item(PAYLOAD, resume=resume, checkpoint=messages.append)
    return messages


def _folded(messages, start=None):
    """Every full checkpoint of a stream: the fold of each prefix
    (copied, since the fold extends one list in place)."""
    folded, checkpoint = [], pickle.loads(pickle.dumps(start))
    for message in messages:
        checkpoint = _fold(checkpoint, message)
        folded.append(dict(checkpoint,
                           witnesses=list(checkpoint["witnesses"])))
    return folded


@pytest.fixture(scope="module")
def messages():
    return _messages()


class TestWorkerEncoding:
    def test_each_witness_crosses_the_pipe_once(self, messages):
        deltas, (_, status, report) = _pipe_stream()
        assert status == "ok"
        assert deltas == messages
        assert len(report.witnesses) == 5000
        assert sum(len(d["witnesses"]) for d in deltas) \
            == len(report.witnesses)
        sent = 0
        for delta in deltas:
            assert delta["base"] == sent
            sent += len(delta["witnesses"])
        # A candidate that found nothing sends no witness at all.
        assert any(not delta["witnesses"] for delta in deltas)

    def test_folding_every_prefix_reproduces_the_snapshot(self):
        deltas, (_, _, report) = _pipe_stream()
        for delta, folded in zip(deltas, _folded(deltas)):
            assert list(folded) == KEYS  # key order: same pickle
            count = delta["base"] + len(delta["witnesses"])
            assert folded["witnesses"] == report.witnesses[:count]
            assert {key: folded[key] for key in KEYS[:-1]} \
                == {key: delta[key] for key in KEYS[:-1]}
        assert folded["candidates"] == report.candidates

    def test_resumed_dispatch_sends_only_witnesses_past_the_resume(
            self, messages):
        full = _folded(messages)
        resume = full[39]
        assert len(resume["witnesses"]) == 132
        deltas, (_, status, report) = _pipe_stream(resume=resume)
        assert status == "ok"
        assert deltas[0]["base"] == 132
        assert sum(len(d["witnesses"]) for d in deltas) \
            == len(report.witnesses) - 132
        assert _folded(deltas, start=resume) == full[40:]
        assert _folded(_messages(resume=resume), start=resume) == full[40:]


def _snap(cursor, witnesses):
    return {"cursor": cursor, "total": 9, "witnesses": list(witnesses)}


def _delta(cursor, witnesses, base):
    return dict(_snap(cursor, witnesses), base=base)


class TestFold:
    def test_first_message(self):
        assert _fold(None, _delta(1, ["a", "b"], 0)) == _snap(1, ["a", "b"])

    def test_incremental_message_extends_the_previous_list(self):
        first = _fold(None, _delta(1, ["a"], 0))
        witnesses = first["witnesses"]
        second = _fold(first, _delta(2, ["b", "c"], 1))
        assert second == _snap(2, ["a", "b", "c"])
        assert second["witnesses"] is witnesses
        assert _fold(second, _delta(3, [], 3)) == _snap(3, ["a", "b", "c"])

    def test_redispatch_after_resume(self):
        resume = _snap(2, ["a", "b"])
        assert _fold(pickle.loads(pickle.dumps(resume)), _delta(3, ["c"], 2)) \
            == _snap(3, ["a", "b", "c"])

    def test_delta_that_does_not_extend_the_last_checkpoint_raises(self):
        previous = _snap(2, ["a", "b"])
        for base in (1, 3):
            with pytest.raises(RuntimeError, match="starts at witness"):
                _fold(previous, _delta(3, ["c"], base))
            assert previous == _snap(2, ["a", "b"])
        with pytest.raises(RuntimeError, match="starts at witness"):
            _fold(None, _delta(1, ["a"], 1))

    def test_snapshots_without_witnesses_pass_through(self):
        for snapshot in ({"cursor": 5}, 7, None):
            assert _fold({"cursor": 4}, snapshot) == snapshot


def _analyze(spec=None, **kwargs):
    session = ClouSession(ClouConfig(fault_spec=spec), cache=False,
                          **kwargs)
    report = session.analyze(AnalysisRequest.analyze(
        SOURCE, engine="pht", name="hmac.c"))
    return report.functions, session


def _stable(functions):
    return [function_report_dict(f, stable=True) for f in functions]


class TestLateCrashes:
    def test_double_crash_resumes_to_the_serial_report(self):
        clean, _ = _analyze(jobs=1)
        faulted, session = _analyze(
            "crash@engine.candidate#40;crash@engine.candidate#90",
            jobs=2, timeout=60, retries=2)
        assert session.stats.resumed == 2
        assert _stable(faulted) == _stable(clean)

    def test_serial_double_memory_kill_resumes_to_the_clean_report(self):
        # The serial twin: the in-process fold, resumed twice.
        clean, _ = _analyze(jobs=1)
        faulted, session = _analyze(
            "memory@engine.candidate#40;memory@engine.candidate#90",
            jobs=1, retries=2)
        assert session.stats.resumed == 2
        assert _stable(faulted) == _stable(clean)

    def test_salvage_matches_the_serial_salvage(self):
        # In process a crash would end the test run; a MemoryError at
        # the same candidate leaves the serial path the same checkpoint.
        [serial], _ = _analyze("memory@engine.candidate#40", jobs=1,
                               retries=0)
        [pooled], _ = _analyze("crash@engine.candidate#40", jobs=2,
                               timeout=60, retries=0)
        assert len(pooled.witnesses) == 132
        assert [witness_dict(w) for w in pooled.witnesses] \
            == [witness_dict(w) for w in serial.witnesses]
        assert not pooled.complete and pooled.error
        assert (pooled.verdict, pooled.candidates, pooled.skipped) \
            == (serial.verdict, serial.candidates, serial.skipped)
