"""Tests for the deterministic fault injector (repro.sched.faults)."""

import pytest

from repro.sched import FaultSpecError, fault_point, parse_spec
from repro.sched.faults import SITES, activate, active_plan


class TestParseSpec:
    def test_nth_rule(self):
        plan = parse_spec("crash@worker.item#3")
        [rule] = plan.rules
        assert rule.action == "crash"
        assert rule.site == "worker.item"
        assert rule.nth == 3

    def test_probability_rule_with_seed(self):
        plan = parse_spec("seed=7;budget@engine.candidate%0.25")
        assert plan.seed == 7
        [rule] = plan.rules
        assert rule.probability == 0.25

    def test_multiple_rules(self):
        plan = parse_spec("seed=1;hang@engine.candidate#2;"
                          "budget@engine.candidate%0.5")
        assert len(plan.rules) == 2

    def test_round_trip(self):
        spec = "seed=9;memory@worker.item#4;budget@engine.candidate%0.125"
        assert parse_spec(spec).render() == spec
        assert parse_spec(parse_spec(spec).render()).render() == spec

    @pytest.mark.parametrize("bad", [
        "explode@worker.item#1",       # unknown action
        "crash@nowhere#1",             # unknown site
        "crash@worker.item",           # missing trigger
        "crash@worker.item#0",         # hits are 1-based
        "crash@worker.item#x",         # non-integer hit
        "budget@engine.candidate%1.5",  # probability out of range
        "budget@oracle.query#1",       # removed site
        "seed=abc",                    # bad seed
        "no-at-sign",                  # malformed rule
    ])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(FaultSpecError):
            parse_spec(bad)


class TestDeterminism:
    def test_nth_fires_exactly_once(self):
        plan = parse_spec("budget@engine.candidate#2")
        hits = [plan.fire("engine.candidate") for _ in range(5)]
        assert hits == [None, "budget", None, None, None]

    def test_probabilistic_fires_identically_across_plans(self):
        spec = "seed=11;budget@engine.candidate%0.5"
        first = [parse_spec(spec).fire("engine.candidate") for _ in range(1)]
        trace_a = []
        trace_b = []
        plan_a, plan_b = parse_spec(spec), parse_spec(spec)
        for _ in range(64):
            trace_a.append(plan_a.fire("engine.candidate"))
            trace_b.append(plan_b.fire("engine.candidate"))
        assert trace_a == trace_b
        assert "budget" in trace_a      # p=0.5 over 64 draws
        assert None in trace_a
        assert first == trace_a[:1]

    def test_seed_changes_the_trace(self):
        def trace(seed):
            plan = parse_spec(f"seed={seed};budget@engine.candidate%0.5")
            return [plan.fire("engine.candidate") for _ in range(64)]

        assert trace(0) != trace(1)

    def test_caller_supplied_hit_overrides_arrival_counter(self):
        # Positional sites (engine.candidate) pass the cursor position,
        # so a resumed attempt starting past the fault never re-fires it.
        plan = parse_spec("budget@engine.candidate#3")
        assert plan.fire("engine.candidate", hit=5) is None
        assert plan.fire("engine.candidate", hit=3) == "budget"
        assert plan.fire("engine.candidate", hit=3) == "budget"

    def test_sites_documented(self):
        for site in ("worker.item", "engine.candidate", "serve.accept",
                     "serve.read", "serve.write", "serve.dispatch"):
            assert site in SITES


class TestActivation:
    def test_fault_point_is_noop_without_a_plan(self):
        assert active_plan() is None
        assert fault_point("worker.item") is None

    def test_activate_scopes_a_plan(self):
        with activate("budget@engine.candidate#1"):
            assert fault_point("engine.candidate") == "budget"
        assert active_plan() is None

    def test_activate_none_keeps_current_plan(self):
        with activate("budget@engine.candidate#1"):
            outer = active_plan()
            with activate(None):
                assert active_plan() is outer
        assert active_plan() is None

    def test_memory_action_raises(self):
        with activate("memory@worker.item#1"):
            with pytest.raises(MemoryError):
                fault_point("worker.item")

    def test_fired_accounting(self):
        with activate("budget@engine.candidate%1.0") as plan:
            fault_point("engine.candidate")
            fault_point("engine.candidate")
        assert plan.fired == {"budget@engine.candidate": 2}


class TestServeSites:
    def test_serve_grammar_round_trips(self):
        spec = "seed=3;drop@serve.read#1;garble@serve.write%0.5"
        assert parse_spec(spec).render() == spec

    def test_every_serve_action_parses_at_every_serve_site(self):
        from repro.sched.faults import SERVE_ACTIONS

        for site in ("serve.accept", "serve.read", "serve.write",
                     "serve.dispatch"):
            for action in SERVE_ACTIONS:
                [rule] = parse_spec(f"{action}@{site}#1").rules
                assert (rule.action, rule.site) == (action, site)

    def test_serve_actions_are_cooperative(self):
        # Even `crash` is returned, never executed: at a transport site
        # it means "tear down the connection", not "kill the process".
        for action in ("drop", "stall", "garble", "crash"):
            with activate(f"{action}@serve.write#1"):
                assert fault_point("serve.write") == action

    def test_fire_is_thread_safe(self):
        import threading

        plan = parse_spec("seed=1;drop@serve.read%0.5")
        counted = []

        def hammer():
            counted.append(sum(
                plan.fire("serve.read") is not None for _ in range(200)))

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every arrival was counted exactly once despite the contention.
        assert plan._hits["serve.read"] == 800


class TestBudgetSite:
    """``budget@engine.candidate`` expires the engine's search budget
    exactly as an elapsed timeout does."""

    SOURCE = """
uint8_t A[16];
uint8_t B[256 * 512];
uint64_t size_A = 16;
uint64_t tmp;

void victim(uint64_t y) {
    if (y < size_A) {
        uint8_t x = A[y];
        tmp &= B[x * 512];
    }
}
"""

    def _run(self):
        from repro.clou import SAEG, ClouConfig, build_acfg
        from repro.clou.engine import ENGINES
        from repro.minic import compile_c

        module = compile_c(self.SOURCE)
        aeg = SAEG(build_acfg(module, "victim").function)
        return ENGINES["pht"](aeg, ClouConfig()).run()

    def test_budget_skips_the_remaining_candidates(self):
        clean = self._run()
        assert clean.verdict == "leak" and clean.complete
        with activate("budget@engine.candidate#1"):
            report = self._run()
        assert report.skipped > 0
        assert report.timed_out
        assert not report.complete
        assert report.verdict == "unknown"
        assert not report.witnesses
