"""The generic work-item scheduler: ordering, crash isolation,
timeouts, retries, and the serial fallback."""

import os
import time

import pytest

from repro.sched import ClouSession, ItemOutcome, TransientError, run_items
from repro.sched.env import JOBS_ENV

# -- top-level workers (must pickle under spawn) ------------------------


def _double(x):
    return x * 2


def _faulty(x):
    if x == 2:
        raise ValueError("item two is broken")
    return x


def _sleepy(x):
    if x == "hang":
        time.sleep(60)
    return x


def _suicidal(x):
    if x == "die":
        os._exit(17)  # simulates a segfault: no exception, no cleanup
    return x


def _crash_once(path_and_value):
    """Crash on first sight of a value, succeed on retry (state kept in
    a scratch file so it survives the worker being respawned)."""
    path, value = path_and_value
    marker = os.path.join(path, f"seen-{value}")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(21)
    return value


def _transient_once(path_and_value):
    path, value = path_and_value
    marker = os.path.join(path, f"t-seen-{value}")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise TransientError("flaky resource")
    return value


def _checkpoint_then_fail(payload, *, resume, checkpoint):
    checkpoint({"base": 0, "cursor": 1, "witnesses": []})
    raise ValueError("broken after a checkpoint")


_checkpoint_then_fail.supports_checkpoints = True


@pytest.mark.parametrize("jobs", [1, 2])
class TestBothPaths:
    """The serial path and the worker pool give the same outcomes."""

    def test_results_in_submission_order(self, jobs):
        outcomes = run_items(_double, [3, 1, 2], jobs=jobs)
        assert [o.value for o in outcomes] == [6, 2, 4]
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_error_is_captured_not_raised(self, jobs):
        outcomes = run_items(_faulty, [1, 2, 3], jobs=jobs)
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert "item two is broken" in outcomes[1].error
        assert outcomes[1].attempts == 1  # deterministic: no retry

    def test_transient_error_retried(self, tmp_path, jobs):
        outcomes = run_items(_transient_once, [(str(tmp_path), 7)],
                             jobs=jobs, retries=1)
        assert outcomes[0].ok
        assert outcomes[0].value == 7
        assert outcomes[0].attempts == 2

    def test_transient_error_retry_budget_exhausted(self, jobs):
        def always_transient(x):
            raise TransientError("never works")

        outcomes = run_items(always_transient, [1], jobs=jobs, retries=2)
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 3  # 1 + 2 retries

    def test_error_after_checkpoint_keeps_it(self, jobs):
        # An ordinary error is not retried, but the checkpoint the item
        # streamed first survives in ``partial`` for the session to
        # salvage, whichever path ran it.
        [outcome] = run_items(_checkpoint_then_fail, [1], jobs=jobs,
                              retries=1)
        assert (outcome.error, outcome.attempts, outcome.resumed,
                outcome.partial) == (
            "ValueError: broken after a checkpoint", 1, 0,
            {"cursor": 1, "witnesses": []})


class TestSerial:
    def test_empty_batch(self):
        assert run_items(_double, [], jobs=4) == []

    def test_pickling_hostile_falls_back_to_serial(self):
        # Payloads always cross a pipe, so an unpicklable payload (a
        # closure) must route the whole batch through the in-process
        # fallback — where it works fine.
        seen = []

        def worker(payload):
            seen.append(payload())
            return payload() + 1

        one, two = (lambda: 1), (lambda: 2)
        outcomes = run_items(worker, [one, two], jobs=4)
        assert [o.value for o in outcomes] == [2, 3]
        assert seen == [1, 2]  # really ran in this process


@pytest.mark.slow
class TestParallel:
    def test_results_in_submission_order(self):
        outcomes = run_items(_double, list(range(8)), jobs=4)
        assert [o.value for o in outcomes] == [x * 2 for x in range(8)]

    def test_crash_isolated_to_its_item(self):
        outcomes = run_items(_suicidal, ["a", "die", "b"], jobs=2, retries=0)
        assert outcomes[0].ok and outcomes[0].value == "a"
        assert outcomes[2].ok and outcomes[2].value == "b"
        assert not outcomes[1].ok
        assert outcomes[1].crashed
        assert "died" in outcomes[1].error

    def test_crash_retried_then_succeeds(self, tmp_path):
        outcomes = run_items(_crash_once, [(str(tmp_path), 5)],
                             jobs=2, retries=1)
        assert outcomes[0].ok
        assert outcomes[0].value == 5
        assert outcomes[0].attempts == 2

    def test_hung_item_killed_at_deadline(self):
        started = time.monotonic()
        outcomes = run_items(_sleepy, ["ok", "hang"], jobs=2,
                             timeout=1.0, retries=0)
        elapsed = time.monotonic() - started
        assert outcomes[0].ok and outcomes[0].value == "ok"
        assert not outcomes[1].ok
        assert outcomes[1].timed_out
        assert "timeout" in outcomes[1].error
        assert elapsed < 30  # nowhere near the worker's 60s sleep

    def test_timeouts_are_not_retried(self):
        outcomes = run_items(_sleepy, ["hang"], jobs=2,
                             timeout=0.5, retries=3)
        assert outcomes[0].timed_out
        assert outcomes[0].attempts == 1

    def test_worker_error_captured(self):
        outcomes = run_items(_faulty, [1, 2, 3], jobs=2, retries=0)
        assert not outcomes[1].ok
        assert "item two is broken" in outcomes[1].error
        assert outcomes[0].ok and outcomes[2].ok


class TestDefaults:
    def test_default_jobs_reads_env(self, monkeypatch):
        def default_jobs():
            return ClouSession(cache=False).jobs

        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv(JOBS_ENV, "6")
        assert default_jobs() == 6
        monkeypatch.setenv(JOBS_ENV, "not-a-number")
        assert default_jobs() == 1
        monkeypatch.setenv(JOBS_ENV, "0")
        assert default_jobs() == 1

    def test_outcome_ok_property(self):
        assert ItemOutcome(index=0).ok
        assert not ItemOutcome(index=0, error="x").ok
