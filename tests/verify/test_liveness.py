"""Exhaustive liveness verification: theorems confirmed, mutants caught.

Positive direction: deadlock-freedom of the Figure 1 mutex (Theorem 3.3)
and obstruction-freedom of the Figure 2 consensus / Figure 3 renaming
(Theorems 4.1, 5.1) hold over the complete retained state graphs — no
adversary sampling anywhere.  Negative direction: the seeded even-``m``
mutex mutant (Theorem 3.4's forbidden regime) must *fail*
deadlock-freedom with a lasso counterexample that replays — both through
the pure kernel and through :func:`replay_schedule` on a fresh system.
"""

from dataclasses import dataclass

import pytest

from repro.errors import VerificationError
from repro.problems import get_problem, instances_with_role
from repro.request import RunRequest
from repro.runtime.automaton import Algorithm, ProcessAutomaton
from repro.runtime.backends import SerialBackend
from repro.runtime.compiled import CompiledBackend
from repro.runtime.exploration import explore
from repro.runtime.kernel import StepInstance, solo_run_value, step_value
from repro.runtime.ops import ReadOp, WriteOp
from repro.runtime.replay import replay_schedule
from repro.runtime.system import System
from repro.verify import (
    check_deadlock_freedom,
    check_obstruction_freedom,
    verify_instance,
)
from repro.verify.liveness import _deadlock_flags, _live, _node_masks

from tests.conftest import pids


def _graph_and_step(key, label, **explore_kwargs):
    spec = get_problem(key)
    instance = spec.instance(label)
    system = spec.system(instance)
    result = explore(
        system,
        spec.invariant,
        max_states=instance.verify_max_states,
        max_depth=instance.verify_max_states,
        retain_graph=True,
        **explore_kwargs,
    )
    assert result.ok
    return spec, instance, result, StepInstance.from_system(system)


class TestTheoremsHold:
    def test_figure_1_mutex_is_deadlock_free(self):
        _, _, result, step = _graph_and_step(
            "figure-1-mutex", "figure-1-mutex(m=3)"
        )
        verdict = check_deadlock_freedom(step, result.graph)
        assert verdict.holds and verdict.lasso is None
        assert verdict.states == result.states_explored
        assert "no fair non-progress cycle" in verdict.detail

    def test_figure_2_consensus_is_obstruction_free(self):
        _, _, result, step = _graph_and_step(
            "figure-2-consensus", "figure-2-consensus(n=2)"
        )
        verdict = check_obstruction_freedom(step, result.graph)
        assert verdict.holds and verdict.lasso is None
        assert "every solo run" in verdict.detail

    def test_figure_3_renaming_is_obstruction_free(self):
        _, _, result, step = _graph_and_step(
            "figure-3-renaming", "figure-3-renaming(n=2)"
        )
        assert check_obstruction_freedom(step, result.graph).holds


class TestHoldingDetailsArePinned:
    """A holding verdict reports the SCC count of the non-progress
    subgraph; a pass that lost or split an SCC would still hold, so the
    counts are pinned to the values the raw-key-ordered pass recorded."""

    @pytest.mark.parametrize(
        "m, states, sccs",
        [(3, 1747, 1219), (5, 14673, 8405), (7, 108715, 57563)],
    )
    def test_deadlock_freedom_detail(self, m, states, sccs):
        _, _, result, step = _graph_and_step(
            "figure-1-mutex", f"figure-1-mutex(m={m})",
            backend=CompiledBackend(),
        )
        verdict = check_deadlock_freedom(step, result.graph)
        assert verdict.holds
        assert verdict.detail == (
            f"no fair non-progress cycle in {states} states / {sccs} "
            "SCCs: every fair infinite execution enters the critical "
            "section infinitely often"
        )

    def test_solo_livelock_of_the_mutex_is_pinned(self):
        # Figure 1 is not obstruction-free: running alone, a process in
        # its entry section can spin forever on a register the other
        # holds.  Which of its many solo cycles is reported depends on
        # the chain origins' order, so this pins the raw-key-ordered
        # rerun.
        _, _, result, step = _graph_and_step(
            "figure-1-mutex", "figure-1-mutex(m=3)",
            backend=CompiledBackend(),
        )
        verdict = check_obstruction_freedom(step, result.graph)
        assert not verdict.holds
        assert verdict.lasso.prefix == (
            101, 101, 101, 101, 103, 103, 103, 103, 101, 101, 101, 103,
            103,
        )
        assert verdict.lasso.cycle == (101,) * 6
        assert verdict.detail == (
            "solo livelock: process 101 running alone repeats a 6-step "
            "cycle forever (prefix length 13)"
        )


VERIFY_INSTANCES = list(instances_with_role("verify", include_mutants=True))


class TestNodeMasks:
    """``_node_masks`` reads each node's slot fields by shift and mask; a
    wrong field would flip a verdict no lasso pins, so every node's mask
    is checked against the one its decoded ``GlobalState`` gives."""

    @pytest.mark.parametrize(
        "spec, inst",
        VERIFY_INSTANCES,
        ids=[inst.label for _, inst in VERIFY_INSTANCES],
    )
    @pytest.mark.parametrize("backend", [SerialBackend, CompiledBackend])
    def test_masks_match_the_decoded_slot_entries(self, spec, inst, backend):
        system = spec.system(inst)
        graph = explore(
            system,
            spec.invariant,
            max_states=inst.verify_max_states,
            max_depth=inst.verify_max_states,
            retain_graph=True,
            backend=backend(),
        ).graph
        step = StepInstance.from_system(system)
        predicates = [_live]
        if any(prop.kind == "deadlock-freedom" for prop in spec.liveness):
            predicates.append(_deadlock_flags(step))
        nslots = len(graph.entries)
        for flags in predicates:
            masks = _node_masks(graph, flags)
            assert len(masks) == len(graph)
            for node in range(len(graph)):
                expected = 0
                for slot, entry in enumerate(graph.nodes[node][1]):
                    for j, flag in enumerate(flags(entry)):
                        if flag:
                            expected |= 1 << (j * nslots + slot)
                assert masks[node] == expected, (flags, node)


class TestIncompleteGraphsAreRefused:
    def test_truncated_graph_supports_no_liveness_verdict(self):
        spec = get_problem("figure-1-mutex")
        instance = spec.instance("figure-1-mutex(m=3)")
        system = spec.system(instance)
        result = explore(
            system, spec.invariant, max_states=50, retain_graph=True
        )
        step = StepInstance.from_system(system)
        with pytest.raises(VerificationError, match="truncated"):
            check_deadlock_freedom(step, result.graph)
        with pytest.raises(VerificationError, match="truncated"):
            check_obstruction_freedom(step, result.graph)

    def test_verify_instance_raises_when_the_budget_is_too_small(self):
        spec = get_problem("figure-1-mutex")
        instance = spec.instance("figure-1-mutex(m=3)")
        with pytest.raises(VerificationError, match="verify_max_states"):
            verify_instance(
                spec, instance, request=RunRequest(max_states=50)
            )


class TestMutantCounterexample:
    @pytest.fixture(scope="class")
    def mutant_report(self):
        spec = get_problem("figure-1-mutex-even-m")
        instance = spec.instance("figure-1-mutex-even-m(m=4)")
        return spec, instance, verify_instance(spec, instance)

    def test_even_m_mutant_fails_deadlock_freedom_as_seeded(
        self, mutant_report
    ):
        _, _, report = mutant_report
        assert report.safety_ok  # mutual exclusion still holds at m=4
        (outcome,) = report.outcomes
        assert not outcome.verdict.holds
        assert outcome.ok  # expected violation, found: the report is OK
        assert outcome.describe() == (
            "deadlock-freedom (Theorem 3.4) violated (as seeded)"
        )
        assert outcome.verdict.lasso is not None

    def test_lasso_and_detail_are_pinned(self, mutant_report):
        # The checker's visit order (raw-key roots, recorded edge order)
        # decides which cycle is reported; these are the values the
        # bytes-keyed graph produced.
        _, _, report = mutant_report
        verdict = report.outcomes[0].verdict
        assert verdict.lasso.prefix == (
            101, 101, 101, 101, 103, 103, 101, 103,
            103, 103, 103, 103, 103, 103, 103, 103,
        )
        assert verdict.lasso.cycle == (
            101, 103, 101, 101, 101, 101, 101, 101,
            101, 103, 103, 103, 103, 103, 103, 103,
        )
        assert verdict.detail == (
            "fair non-progress cycle of length 16 through an SCC of 64 "
            "states (live pids [101, 103] all step, no critical-section "
            "entry, a live process stays in its entry section); prefix "
            "length 16"
        )

    def test_lasso_replays_through_the_pure_kernel(self, mutant_report):
        spec, instance, report = mutant_report
        lasso = report.outcomes[0].verdict.lasso
        graph = report.exploration.graph
        step = StepInstance.from_system(spec.system(instance))
        state = graph.nodes[graph.initial]
        for pid in lasso.prefix:
            state = step_value(step, state, pid)
        assert state == graph.nodes[lasso.entry]
        for pid in lasso.cycle:
            state = step_value(step, state, pid)
        assert state == graph.nodes[lasso.entry]  # the cycle closes

    def test_lasso_cycle_is_fair_and_never_enters_the_critical_section(
        self, mutant_report
    ):
        spec, instance, report = mutant_report
        lasso = report.outcomes[0].verdict.lasso
        system = spec.system(instance)
        live = set(system.scheduler.pids)
        assert live <= set(lasso.cycle)  # every live process steps
        # Replay prefix + three cycle turns on a fresh traced system:
        # the livelock means nobody ever reaches the critical section.
        traced = spec.system(instance, record_trace=True)
        schedule = list(lasso.prefix) + 3 * list(lasso.cycle)
        trace = replay_schedule(traced, schedule)
        assert len(trace) == len(schedule)
        assert trace.critical_section_entries() == 0

    def test_odd_m_neighbours_of_the_mutant_are_deadlock_free(self):
        # The violation is specific to even m: the same pipeline on the
        # shipped odd-m instances confirms Theorem 3.3 instead.
        spec = get_problem("figure-1-mutex")
        report = verify_instance(spec, spec.instance("figure-1-mutex(m=5)"))
        assert report.ok
        (outcome,) = report.outcomes
        assert outcome.verdict.holds


class TestVerifyInstancePipeline:
    def test_report_summary_carries_safety_and_liveness(self):
        spec = get_problem("figure-2-consensus")
        report = verify_instance(
            spec, spec.instance("figure-2-consensus(n=2)")
        )
        assert report.ok
        summary = report.summary()
        assert "safety exhaustive" in summary
        assert "obstruction-freedom (Theorem 4.1) holds" in summary
        assert report.retained_edges > 0
        assert report.explore_seconds > 0

    def test_manifest_round_trips_through_the_report_reader(self, tmp_path):
        from repro.obs import load_manifests
        from repro.verify import write_verify_manifest

        spec = get_problem("figure-1-mutex")
        instance = spec.instance("figure-1-mutex(m=3)")
        report = verify_instance(spec, instance)
        path = write_verify_manifest(tmp_path, spec, instance, report)
        (manifest,) = load_manifests(tmp_path)
        assert path.name == "verify-figure-1-mutex-m-3.json"
        assert manifest.kind == "verify"
        assert manifest.verdict() == "verified"
        assert manifest.outcome["retained_edges"] == report.retained_edges
        (prop,) = manifest.outcome["properties"]
        assert prop["kind"] == "deadlock-freedom" and prop["holds"]


@dataclass(frozen=True)
class _WaitState:
    pc: str = "announce"


class _WaitForGo(ProcessAutomaton):
    """Write your pid to register 0, then read it until someone writes
    "go" — which nobody does, so a solo run spins forever on an inert
    read: an obstruction-freedom violation."""

    def __init__(self, pid):
        self.pid = pid

    def initial_state(self):
        return _WaitState()

    def is_halted(self, state):
        return state.pc == "done"

    def output(self, state):
        return None

    def next_op(self, state):
        if state.pc == "announce":
            return WriteOp(0, self.pid)
        return ReadOp(0)

    def apply(self, state, op, result):
        if state.pc == "announce":
            return _WaitState("wait")
        return _WaitState("done") if result == "go" else state


class _WaitForGoAlgorithm(Algorithm):
    name = "wait-for-go"

    def register_count(self):
        return 2

    def automaton_for(self, pid, input=None):
        return _WaitForGo(pid)


class TestSoloLivelockCounterexample:
    @pytest.fixture(scope="class")
    def verdicts(self):
        out = {}
        for name, backend in (
            ("serial", SerialBackend()),
            ("compiled", CompiledBackend()),
        ):
            system = System(_WaitForGoAlgorithm(), pids(2), record_trace=False)
            result = explore(
                system, lambda _system: None, retain_graph=True, backend=backend
            )
            assert result.complete
            step = StepInstance.from_system(system)
            out[name] = (
                step, result.graph, check_obstruction_freedom(step, result.graph)
            )
        return out

    def test_solo_livelock_is_found_with_a_replaying_lasso(self, verdicts):
        step, graph, verdict = verdicts["serial"]
        assert not verdict.holds
        lasso = verdict.lasso
        assert lasso is not None and lasso.cycle == (lasso.cycle[0],)
        assert "solo livelock" in verdict.detail
        entry = graph.nodes[lasso.entry]
        state = graph.nodes[graph.initial]
        for pid in lasso.prefix:
            state = step_value(step, state, pid)
        assert state == entry
        _, _, settled = solo_run_value(step, entry, lasso.cycle[0], 50)
        assert not settled

    def test_every_engine_reports_the_same_lasso(self, verdicts):
        _, serial_graph, reference = verdicts["serial"]
        _, graph, verdict = verdicts["compiled"]
        assert (verdict.holds, verdict.detail) == (
            reference.holds, reference.detail
        )
        assert (verdict.lasso.prefix, verdict.lasso.cycle) == (
            reference.lasso.prefix, reference.lasso.cycle
        )
        assert graph.nodes[verdict.lasso.entry] == serial_graph.nodes[
            reference.lasso.entry
        ]
