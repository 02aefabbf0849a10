"""Unit tests for the bounded exhaustive model checker."""

from repro.core.consensus import AnonymousConsensus
from repro.core.mutex import AnonymousMutex
from repro.lowerbounds.candidates import NaiveTestAndSetLock
from repro.runtime.exploration import (
    agreement_invariant,
    conjoin,
    explore,
    mutual_exclusion_invariant,
    unique_names_invariant,
    validity_invariant,
)
from repro.runtime.system import System

from tests.conftest import pids


class TestExploreMechanics:
    def test_single_process_exploration_is_linear(self):
        system = System(
            AnonymousConsensus(n=1), {101: "v"}, record_trace=False
        )
        result = explore(system, agreement_invariant)
        assert result.complete
        assert result.ok
        # One process => one schedule => states form a single chain.
        assert result.states_explored == result.max_depth_reached + 1

    def test_truncation_by_max_states(self):
        system = System(AnonymousMutex(m=3, cs_visits=2), pids(2), record_trace=False)
        result = explore(system, mutual_exclusion_invariant, max_states=50)
        assert not result.complete
        assert result.truncated_by == "max_states"

    def test_truncation_by_max_depth(self):
        system = System(AnonymousMutex(m=3, cs_visits=2), pids(2), record_trace=False)
        result = explore(system, mutual_exclusion_invariant, max_depth=5)
        assert not result.complete
        assert result.truncated_by == "max_depth"

    def test_summary_mentions_status(self):
        system = System(AnonymousConsensus(n=1), {101: "v"}, record_trace=False)
        result = explore(system, agreement_invariant)
        assert "exhaustive-ok" in result.summary()
        assert "truncated" not in result.summary()

    def test_summary_reports_truncation_budget(self):
        system = System(AnonymousMutex(m=3, cs_visits=2), pids(2), record_trace=False)
        result = explore(system, mutual_exclusion_invariant, max_depth=5)
        assert "truncated by max_depth" in result.summary()
        fresh = System(AnonymousMutex(m=3, cs_visits=2), pids(2), record_trace=False)
        result = explore(fresh, mutual_exclusion_invariant, max_states=10)
        assert "truncated by max_states" in result.summary()

    def test_summary_reports_stuck_states(self):
        from repro.runtime.exploration import ExplorationResult

        result = ExplorationResult(
            complete=True,
            states_explored=4,
            events_executed=3,
            max_depth_reached=2,
            stuck_states=2,
        )
        assert "2 stuck states" in result.summary()


class TestExploreFindsViolations:
    def test_naive_lock_mutual_exclusion_violation_found(self):
        # The naive test-and-set lock is broken even for two processes;
        # exhaustive search must find the bad interleaving.
        system = System(NaiveTestAndSetLock(), pids(2), record_trace=False)
        result = explore(system, mutual_exclusion_invariant)
        assert result.violation is not None
        assert "critical section" in result.violation
        assert result.violation_schedule is not None

    def test_violation_schedule_replays_to_the_violation(self):
        system = System(NaiveTestAndSetLock(), pids(2), record_trace=False)
        result = explore(system, mutual_exclusion_invariant)
        replay = System(NaiveTestAndSetLock(), pids(2), record_trace=False)
        for pid in result.violation_schedule:
            replay.scheduler.step(pid)
        assert mutual_exclusion_invariant(replay) is not None


class TestStockInvariants:
    def test_agreement_invariant_passes_on_consistent_outputs(self):
        system = System(AnonymousConsensus(n=1), {101: "v"}, record_trace=False)
        system.scheduler.run_solo_until_halt(101)
        assert agreement_invariant(system) is None

    def test_validity_invariant_detects_foreign_value(self):
        system = System(AnonymousConsensus(n=1), {101: "v"}, record_trace=False)
        system.scheduler.run_solo_until_halt(101)
        system.inputs = {101: "other"}  # falsify the inputs post hoc
        assert validity_invariant(system) is not None

    def test_unique_names_invariant_passes_when_nobody_finished(self):
        from repro.core.renaming import AnonymousRenaming

        system = System(AnonymousRenaming(n=2), pids(2), record_trace=False)
        assert unique_names_invariant(system) is None

    def test_conjoin_reports_first_failure(self):
        def ok(_):
            return None

        def bad(_):
            return "problem"

        assert conjoin(ok, bad)(None) == "problem"
        assert conjoin(ok, ok)(None) is None
