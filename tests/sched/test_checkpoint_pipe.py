"""The checkpoint stream over the worker pipe: each witness crosses the
pipe once per attempt, and the parent rebuilds every full snapshot.

``_worker_loop`` runs in-process over a fake connection, on a
witness-heavy item (hmac under pht: 443 candidates, 5000 witnesses), so
the messages are exactly what a pool worker would send.  The pool tests
crash a worker late, after witnesses exist, so the parent's fold runs
with ``base > 0`` both within an attempt and across a resume.
"""

import os
import pickle
from collections import deque

import pytest

from repro.clou import ClouConfig
from repro.clou.serialize import function_report_dict, witness_dict
from repro.sched import AnalysisRequest, ClouSession
from repro.sched.scheduler import _delta_encoder, _fold, _worker_loop
from repro.sched.worker import execute_item

HMAC = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro",
                    "bench", "corpus", "crypto", "hmac.c")

with open(HMAC) as _handle:
    SOURCE = _handle.read()

PAYLOAD = {"kind": "analyze", "source": SOURCE, "name": "hmac.c",
           "function": "crypto_auth_hmac", "engine": "pht",
           "config": ClouConfig().to_dict()}


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


def _snapshots(resume=None):
    """The full snapshots the engine hands its checkpoint callable."""
    snapshots = []
    execute_item(PAYLOAD, resume=resume, checkpoint=snapshots.append)
    return snapshots


@pytest.fixture(scope="module")
def snapshots():
    return _snapshots()


class TestWorkerEncoding:
    def test_each_witness_crosses_the_pipe_once(self, snapshots):
        deltas, (_, status, report) = _pipe_stream()
        assert status == "ok"
        assert len(deltas) == len(snapshots)
        assert len(report.witnesses) == 5000
        assert sum(len(d["witnesses"]) for d in deltas) \
            == len(report.witnesses)
        sent = 0
        for delta in deltas:
            assert delta["base"] == sent
            sent += len(delta["witnesses"])

    def test_folding_every_prefix_reproduces_the_snapshot(self, snapshots):
        deltas, _ = _pipe_stream()
        folded = None
        for delta, snapshot in zip(deltas, snapshots):
            folded = _fold(folded, delta)
            assert folded == snapshot
            assert list(folded) == list(snapshot)  # key order: same pickle

    def test_resumed_dispatch_sends_only_witnesses_past_the_resume(
            self, snapshots):
        resume = snapshots[39]
        assert len(resume["witnesses"]) == 132
        deltas, (_, status, report) = _pipe_stream(resume=resume)
        assert status == "ok"
        assert deltas[0]["base"] == 132
        assert sum(len(d["witnesses"]) for d in deltas) \
            == len(report.witnesses) - 132
        folded = pickle.loads(pickle.dumps(resume))
        for delta, snapshot in zip(deltas, _snapshots(resume=resume)):
            folded = _fold(folded, delta)
            assert folded == snapshot


class _Deferred:
    """A sink that asks for deferred snapshots, as the serial path does."""

    deferred = True

    def __init__(self):
        self.thunks = []

    def __call__(self, thunk):
        self.thunks.append(thunk)


class TestDeferredSnapshots:
    def test_deferred_snapshots_equal_the_eager_ones(self, snapshots):
        sink = _Deferred()
        execute_item(PAYLOAD, checkpoint=sink)
        assert all(callable(thunk) for thunk in sink.thunks)
        assert len(sink.thunks) == len(snapshots)
        # Built out of order and twice: each equals its eager snapshot.
        for index in (len(snapshots) - 1, 39, 0, 39):
            built = sink.thunks[index]()
            assert built == snapshots[index]
            assert list(built) == list(snapshots[index])  # same pickle

    def test_deferred_resume_stream_equals_the_eager_one(self, snapshots):
        sink = _Deferred()
        execute_item(PAYLOAD, resume=snapshots[39], checkpoint=sink)
        assert [thunk() for thunk in sink.thunks] \
            == _snapshots(resume=snapshots[39])

    def test_serial_sink_builds_only_the_snapshot_it_reads(self):
        from repro.sched.scheduler import _LatestCheckpoint

        built = []
        latest = _LatestCheckpoint()
        assert latest.deferred and latest.get() is None
        for cursor in range(3):
            latest(lambda cursor=cursor: built.append(cursor) or
                   _snap(cursor, []))
        assert latest.get() == _snap(2, []) and latest.get() == _snap(2, [])
        assert built == [2]
        latest({"cursor": 7})          # an eager worker's plain dict
        assert latest.get() == {"cursor": 7}


def _snap(cursor, witnesses):
    return {"cursor": cursor, "total": 9, "witnesses": list(witnesses)}


class TestFold:
    def test_first_message(self):
        encode = _delta_encoder(None)
        delta = encode(_snap(1, ["a", "b"]))
        assert delta == {"cursor": 1, "total": 9, "witnesses": ["a", "b"],
                         "base": 0}
        assert _fold(None, delta) == _snap(1, ["a", "b"])

    def test_incremental_message_extends_the_previous_list(self):
        encode = _delta_encoder(None)
        first = _fold(None, encode(_snap(1, ["a"])))
        delta = encode(_snap(2, ["a", "b", "c"]))
        assert delta["witnesses"] == ["b", "c"] and delta["base"] == 1
        witnesses = first["witnesses"]
        second = _fold(first, delta)
        assert second == _snap(2, ["a", "b", "c"])
        assert second["witnesses"] is witnesses
        # A candidate that found nothing sends no witness at all.
        assert encode(_snap(3, ["a", "b", "c"]))["witnesses"] == []

    def test_redispatch_after_resume(self):
        resume = _snap(2, ["a", "b"])
        encode = _delta_encoder(resume)
        delta = encode(_snap(3, ["a", "b", "c"]))
        assert delta["base"] == 2 and delta["witnesses"] == ["c"]
        assert _fold(pickle.loads(pickle.dumps(resume)), delta) \
            == _snap(3, ["a", "b", "c"])

    def test_delta_that_does_not_extend_the_last_checkpoint_raises(self):
        previous = _snap(2, ["a", "b"])
        for base in (1, 3):
            delta = dict(_snap(3, ["c"]), base=base)
            with pytest.raises(RuntimeError, match="starts at witness"):
                _fold(previous, delta)
            assert previous == _snap(2, ["a", "b"])
        with pytest.raises(RuntimeError, match="starts at witness"):
            _fold(None, dict(_snap(1, ["a"]), base=1))

    def test_snapshots_without_witnesses_pass_through(self):
        encode = _delta_encoder({"cursor": 4})
        for snapshot in ({"cursor": 5}, 7, None):
            assert encode(snapshot) == snapshot
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
