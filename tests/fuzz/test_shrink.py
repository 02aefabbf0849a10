"""Shrinker and oracle unit tests, the step memo against the plain
kernel, and the witnesses the engine publishes."""

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import FuzzError, ProtocolError, SchedulingError
from repro.fuzz import StepMemo, shrink_lasso, shrink_safety
from repro.fuzz.engine import run_fuzz
from repro.fuzz.shrink import (
    _ddmin,
    _minimal_repeating_unit,
    cycle_is_df_violation,
    cycle_is_of_violation,
    replay_values,
    safety_message,
)
from repro.problems import get_problem
from repro.request import RunRequest
from repro.runtime.kernel import (
    StateView,
    StepInstance,
    enabled_pids,
    solo_run_value,
    step_value,
)
from repro.runtime.ops import NoOp, ReadOp, WriteOp

#: The two processes of every instance below, plus one no instance has.
PIDS = (101, 103)
UNKNOWN_PID = 999

#: The lockstep lasso the fuzzer publishes first on the even-m mutant.
LOCKSTEP_PREFIX = (101, 103) * 4
LOCKSTEP_CYCLE = (101, 103) * 8


def load(problem, label):
    spec = get_problem(problem)
    record = spec.instance(label)
    system = spec.system(record)
    instance = StepInstance.from_system(system)
    initial = system.scheduler.capture_state()
    return spec, record, instance, initial


@pytest.fixture(scope="module")
def mutant():
    return load("figure-1-mutex-even-m", "figure-1-mutex-even-m(m=4)")


@pytest.fixture(scope="module")
def mutex3():
    return load("figure-1-mutex", "figure-1-mutex(m=3)")


class TestDdmin:
    def test_minimises_to_the_required_core(self):
        # predicate: keeps both sentinels, in order
        def predicate(seq):
            return 7 in seq and 9 in seq

        result = _ddmin(tuple(range(20)) + (7, 1, 2, 9), predicate)
        assert sorted(result) == [7, 9]

    def test_already_minimal_is_untouched(self):
        assert _ddmin((5,), lambda seq: 5 in seq) == (5,)

    def test_predicate_never_sees_the_unchanged_sequence(self):
        seen = []

        def predicate(seq):
            seen.append(seq)
            return 1 in seq

        original = (1, 2, 3, 4)
        _ddmin(original, predicate)
        assert original not in seen


class TestMinimalRepeatingUnit:
    def test_collapses_powers(self):
        cycle = (101, 103) * 8
        assert _minimal_repeating_unit(cycle, lambda u: True) == (101, 103)

    def test_respects_validity(self):
        cycle = (101, 103) * 4
        # units shorter than 4 declared invalid: the best valid power wins
        unit = _minimal_repeating_unit(cycle, lambda u: len(u) >= 4)
        assert unit == (101, 103, 101, 103)

    def test_aperiodic_cycle_survives(self):
        cycle = (101, 103, 101)
        assert _minimal_repeating_unit(cycle, lambda u: True) == cycle


class TestOracles:
    def test_memo_supported_on_mutex_automata(self, mutant):
        _, _, instance, _ = mutant
        assert StepMemo(instance).supported

    def test_replay_values_walks_a_feasible_schedule(self, mutant):
        _, _, instance, initial = mutant
        pids = instance.pid_order
        state = replay_values(instance, initial, [pids[0], pids[1]])
        assert state is not None and state != initial

    def test_safety_message_none_on_clean_state(self, mutant):
        spec, _, instance, initial = mutant
        memo = StepMemo(instance)
        start = memo.intern(initial)
        assert safety_message(memo, start, (), spec.invariant) is None

    def test_df_oracle_rejects_unfair_and_empty_cycles(self, mutant):
        _, _, instance, initial = mutant
        memo = StepMemo(instance)
        start = memo.intern(initial)
        assert not cycle_is_df_violation(memo, start, ())
        # a one-pid cycle cannot be fair with two live processes
        pid = instance.pid_order[0]
        assert not cycle_is_df_violation(memo, start, (pid, pid))

    def test_of_oracle_requires_a_single_pid(self, mutant):
        _, _, instance, initial = mutant
        pids = instance.pid_order
        memo = StepMemo(instance)
        assert not cycle_is_of_violation(
            memo, memo.intern(initial), tuple(pids[:2])
        )


class TestShrinkLasso:
    @pytest.fixture(scope="class")
    def raw_violation(self):
        # shrink=False: the raw witness as the engine first sees it
        report = run_fuzz(
            RunRequest(
                problem="figure-1-mutex",
                instance="figure-1-mutex-even-m",
                seed=7,
            ),
            episodes=1,
            shrink=False,
            validate=False,
        )
        assert report.found
        return report.violations[0]

    def test_shrunk_lasso_still_violates(self, mutant, raw_violation):
        _, _, instance, initial = mutant
        memo = StepMemo(instance)
        prefix, cycle = shrink_lasso(
            memo, initial,
            raw_violation.prefix, raw_violation.cycle, raw_violation.kind,
        )
        assert len(cycle) <= len(raw_violation.cycle)
        assert len(prefix) <= len(raw_violation.prefix)
        entry = replay_values(instance, initial, prefix)
        assert entry is not None
        fresh = StepMemo(instance)
        assert cycle_is_df_violation(fresh, fresh.intern(entry), cycle)

    def test_shrinking_is_idempotent(self, mutant, raw_violation):
        _, _, instance, initial = mutant
        memo = StepMemo(instance)
        once = shrink_lasso(
            memo, initial,
            raw_violation.prefix, raw_violation.cycle, raw_violation.kind,
        )
        twice = shrink_lasso(
            memo, initial, once[0], once[1], raw_violation.kind
        )
        assert twice == once

    def test_a_shared_memo_shrinks_like_a_fresh_one(self, mutant, raw_violation):
        _, _, instance, initial = mutant
        warm = StepMemo(instance)
        args = (raw_violation.prefix, raw_violation.cycle, raw_violation.kind)
        first = shrink_lasso(warm, initial, *args)
        assert shrink_lasso(warm, initial, *args) == first
        assert shrink_lasso(StepMemo(instance), initial, *args) == first


class TestShrinkerInput:
    """The public shrinkers refuse a witness they cannot shrink instead
    of returning it as if it had been shrunk."""

    def test_lasso_with_an_infeasible_prefix(self, mutant):
        _, _, instance, initial = mutant
        with pytest.raises(FuzzError, match="infeasible"):
            shrink_lasso(
                StepMemo(instance), initial, (UNKNOWN_PID,),
                LOCKSTEP_CYCLE, "deadlock-freedom",
            )

    def test_lasso_whose_cycle_does_not_violate(self, mutant):
        _, _, instance, initial = mutant
        with pytest.raises(FuzzError, match="not a deadlock-freedom"):
            shrink_lasso(
                StepMemo(instance), initial, (101,), (101, 103, 101),
                "deadlock-freedom",
            )

    def test_lasso_of_an_unknown_kind(self, mutant):
        _, _, instance, initial = mutant
        with pytest.raises(FuzzError, match="unknown lasso kind"):
            shrink_lasso(
                StepMemo(instance), initial, LOCKSTEP_PREFIX,
                LOCKSTEP_CYCLE, "safety",
            )

    def test_safety_schedule_that_ends_clean(self, mutant):
        spec, _, instance, initial = mutant
        with pytest.raises(FuzzError, match="clean"):
            shrink_safety(
                StepMemo(instance), initial, (101, 103, 101, 103),
                spec.invariant,
            )

    def test_safety_schedule_that_is_infeasible(self, mutant):
        spec, _, instance, initial = mutant
        with pytest.raises(FuzzError, match="infeasible"):
            shrink_safety(
                StepMemo(instance), initial, (101, UNKNOWN_PID),
                spec.invariant,
            )


class TestPublishedWitnesses:
    def test_mutant_witnesses_at_seed_7_are_pinned(self):
        # The report digests in test_differential.py pin the shrunk
        # witnesses too; these figures say what changed when one moves.
        report = run_fuzz(
            RunRequest(
                problem="figure-1-mutex",
                instance="figure-1-mutex-even-m",
                seed=7,
            ),
            episodes=64,
        )
        violations = report.violations
        assert len(violations) == 41
        assert sum(len(v.shrunk_schedule) for v in violations) == 1040
        assert sum(len(v.schedule) for v in violations) == 1170
        document = json.dumps([v.to_dict() for v in violations], sort_keys=True)
        digest = hashlib.sha256(document.encode()).hexdigest()
        assert digest.startswith("cab504d1d9cfca78")


# -- the memo against the plain kernel ---------------------------------

def reference_df(instance, entry, cycle):
    """The deadlock-freedom oracle written straight on ``step_value``."""
    automata = instance.automata
    if not cycle or not all(
        hasattr(a, "in_critical_section") and hasattr(a, "phase")
        for a in automata.values()
    ):
        return False

    def local(state, pid):
        return instance.slot_entry(state, pid)[1]

    def in_cs(state, pid):
        return automata[pid].in_critical_section(local(state, pid))

    live = [
        pid for pid in instance.pid_order
        if not any(instance.slot_entry(entry, pid)[2:])
    ]
    if not live or not set(live) <= set(cycle):
        return False
    if not any(automata[pid].phase(local(entry, pid)) == "entry" for pid in live):
        return False
    state = entry
    for pid in cycle:
        try:
            successor = step_value(instance, state, pid)
        except (SchedulingError, ProtocolError):
            return False
        if not in_cs(state, pid) and in_cs(successor, pid):
            return False
        state = successor
    return state == entry


def holds_101_in_cs(system):
    """A test invariant no shipped instance declares: it trips whenever
    pid 101 is in its critical section."""
    runtime = system.scheduler.runtime(101)
    if runtime.automaton.in_critical_section(runtime.state):
        return "pid 101 is in the critical section"
    return None


schedules = st.lists(st.sampled_from(PIDS + (UNKNOWN_PID,)), max_size=60)
lockstep = st.integers(min_value=0, max_value=10).map(lambda k: PIDS * k)
lasso_parts = st.one_of(lockstep, st.lists(st.sampled_from(PIDS), max_size=24))


def reference_pending(instance, state, pid):
    """The physical register ``pid``'s next operation touches at
    ``state``, written straight on the automaton and the permutation."""
    op = instance.automata[pid].next_op(instance.slot_entry(state, pid)[1])
    perm = instance.permutations[pid]
    if isinstance(op, (ReadOp, WriteOp)) and 0 <= op.index < len(perm):
        return perm[op.index]
    return None


@pytest.fixture(scope="module", params=["mutant", "mutex3"])
def target(request):
    """One instance and one memo shared by every example, so later
    examples step through a warm table.  The memo's invariant trips
    whenever 101 holds the critical section, so its message rows are
    not all clean."""
    _, _, instance, initial = request.getfixturevalue(request.param)
    return instance, initial, StepMemo(instance, holds_101_in_cs)


class TestMemoMatchesThePlainKernel:
    @settings(max_examples=40, deadline=None)
    @given(schedule=schedules)
    @example(schedule=[101] * 20)  # 101 halts first, then steps again
    @example(schedule=[101, UNKNOWN_PID])
    def test_replay_equals_replay_values(self, target, schedule):
        instance, initial, memo = target
        expected = replay_values(instance, initial, schedule)
        start = memo.intern(initial)
        # The second replay reads every step, rejected ones too, from
        # the table the first one filled.
        for reached in (memo.replay(start, schedule), memo.replay(start, schedule)):
            if expected is None:
                assert reached is None
            else:
                assert memo.states[reached] == expected
                assert memo.intern(expected) == reached

    @settings(max_examples=40, deadline=None)
    @given(prefix=lasso_parts, cycle=lasso_parts)
    @example(prefix=LOCKSTEP_PREFIX, cycle=LOCKSTEP_CYCLE)
    def test_df_oracle_equals_the_reference(self, target, prefix, cycle):
        instance, initial, memo = target
        entry = replay_values(instance, initial, prefix)
        if entry is None:
            return
        assert cycle_is_df_violation(
            memo, memo.intern(entry), cycle
        ) == reference_df(instance, entry, cycle)

    @settings(max_examples=30, deadline=None)
    @given(prefix=lasso_parts)
    def test_state_predicates_equal_the_automata(self, target, prefix):
        instance, initial, memo = target
        state = replay_values(instance, initial, prefix)
        if state is None:
            return
        sid = memo.intern(state)
        assert memo.live_pids(sid) == enabled_pids(instance, state)
        for pid in instance.pid_order:
            automaton = instance.automata[pid]
            local = instance.slot_entry(state, pid)[1]
            assert memo.in_cs(sid, pid) == automaton.in_critical_section(local)
            assert memo.phase(sid, pid) == automaton.phase(local)

    @settings(max_examples=30, deadline=None)
    @given(prefix=lasso_parts)
    @example(prefix=(101,) * 10)  # 101 alone in its critical section (m=3)
    @example(prefix=(101,) * 13)  # the same on the mutant (m=4)
    def test_rows_equal_the_kernel(self, target, prefix):
        instance, initial, memo = target
        state = replay_values(instance, initial, prefix)
        if state is None:
            return
        sid = memo.intern(state)
        live = enabled_pids(instance, state)
        assert memo.context(sid) == (
            live, {pid: reference_pending(instance, state, pid) for pid in live}
        )
        assert memo.message(sid) == holds_101_in_cs(StateView(instance, state))
        assert memo.cs_mask(sid) == sum(
            1 << instance.slot_of[pid]
            for pid in instance.pid_order
            if instance.automata[pid].in_critical_section(
                instance.slot_entry(state, pid)[1]
            )
        )

    @settings(max_examples=30, deadline=None)
    @given(
        prefix=lasso_parts,
        pid=st.sampled_from(PIDS),
        budget=st.integers(min_value=0, max_value=24),
    )
    def test_solo_run_equals_solo_run_value(self, target, prefix, pid, budget):
        instance, initial, memo = target
        state = replay_values(instance, initial, prefix)
        if state is None:
            return
        final, steps, settled = memo.solo_run(memo.intern(state), pid, budget)
        expected = solo_run_value(instance, state, pid, budget)
        assert (memo.states[final], steps, settled) == expected

    def test_the_example_lasso_is_a_violation_on_the_mutant_only(
        self, mutant, mutex3
    ):
        for (_, _, instance, initial), expected in ((mutant, True), (mutex3, False)):
            entry = replay_values(instance, initial, LOCKSTEP_PREFIX)
            assert reference_df(instance, entry, LOCKSTEP_CYCLE) is expected


class TestInternedParts:
    def test_equal_parts_are_one_object(self):
        # What keeps a drain memo small: however many states hold an
        # equal register tuple, locals part or slot entry, it is stored
        # once.
        memos = {}
        for base in (0, 16):
            run_fuzz(
                RunRequest(
                    problem="figure-1-mutex",
                    instance="figure-1-mutex(m=3)",
                    seed=7,
                ),
                episodes=16,
                episode_base=base,
                memos=memos,
            )
        (memo,) = memos.values()
        states = [memo.states[sid] for sid in range(len(memo.states))]
        assert len(set(states)) == len(states) > 100
        for parts in (
            [registers for registers, _ in states],
            [locals_part for _, locals_part in states],
            [entry for _, locals_part in states for entry in locals_part],
        ):
            assert len({id(part) for part in parts}) == len(set(parts))


class TestMessageRows:
    """A memo's message column holds its own invariant's messages, and
    no other invariant reads it."""

    @pytest.fixture(scope="class")
    def in_cs_schedule(self, mutex3):
        # The shortest solo run of 101 that ends in its critical section.
        _, _, instance, initial = mutex3
        for length in range(1, 30):
            state = replay_values(instance, initial, (101,) * length)
            if holds_101_in_cs(StateView(instance, state)) is not None:
                return (101,) * length
        raise AssertionError("101 never reached its critical section alone")

    def test_another_invariant_never_reads_the_rows(self, mutex3, in_cs_schedule):
        spec, _, instance, initial = mutex3
        run_memo = StepMemo(instance, spec.invariant)
        start = run_memo.intern(initial)
        final = run_memo.replay(start, in_cs_schedule)
        assert run_memo.message(final) is None  # mutual exclusion holds
        assert (
            safety_message(run_memo, start, in_cs_schedule, holds_101_in_cs)
            == "pid 101 is in the critical section"
        )

        test_memo = StepMemo(instance, holds_101_in_cs)
        start = test_memo.intern(initial)
        final = test_memo.replay(start, in_cs_schedule)
        assert test_memo.message(final) == "pid 101 is in the critical section"
        assert safety_message(test_memo, start, in_cs_schedule, spec.invariant) is None
        with pytest.raises(FuzzError, match="clean"):
            shrink_safety(test_memo, initial, in_cs_schedule, spec.invariant)
        assert shrink_safety(
            test_memo, initial, in_cs_schedule, holds_101_in_cs
        ) == in_cs_schedule

    def test_a_raising_invariant_propagates_and_is_not_stored(self, toy):
        calls = []

        def flaky(system):
            calls.append(system.global_state)
            if len(calls) == 1:
                raise ValueError("flaky invariant")
            return None

        memo = StepMemo(toy, flaky)
        sid = memo.intern(toy_state("spin", "spin"))
        with pytest.raises(ValueError, match="flaky invariant"):
            memo.message(sid)
        assert memo.message(sid) is None
        assert memo.message(sid) is None
        assert len(calls) == 2


class Toy:
    """A toy mutex process on local steps only: ``spin`` loops in the
    entry section, ``try`` enters the critical section and leaves it
    again, ``done`` has halted.  Unlike Figure 1's processes, which
    halt after one passage, it can close a cycle through the critical
    section.  ``poison`` reads a register no process has (the kernel
    rejects the step); ``broken`` fails inside the automaton, in
    ``apply``, and ``mute`` in ``next_op``."""

    NEXT = {"spin": "spin", "try": "crit", "crit": "try"}
    PHASE = {"crit": "critical", "done": "remainder"}  # the rest: "entry"

    def next_op(self, state):
        if state == "mute":
            raise ValueError("mute automaton")
        return ReadOp(0) if state == "poison" else NoOp()

    def apply(self, state, op, result):
        if state == "broken":
            raise ValueError("broken automaton")
        return self.NEXT[state]

    def is_halted(self, state):
        return state == "done"

    def in_critical_section(self, state):
        return state == "crit"

    def phase(self, state):
        return self.PHASE.get(state, "entry")


@pytest.fixture(scope="module")
def toy():
    return StepInstance(automata={1: Toy(), 2: Toy()}, permutations={1: (), 2: ()})


def toy_state(first, second):
    return ((), (
        (1, first, first == "done", False),
        (2, second, second == "done", False),
    ))


class TestRejectedSteps:
    def test_a_rejected_step_ends_a_replay_and_the_df_oracle(self, toy):
        memo = StepMemo(toy)
        entry = memo.intern(toy_state("poison", "spin"))
        for _ in range(2):  # the second pass reads the table
            assert memo.replay(entry, (2, 1)) is None
            assert not cycle_is_df_violation(memo, entry, (1, 2))
        assert replay_values(toy, toy_state("poison", "spin"), (2, 1)) is None

    def test_the_of_solo_run_raises_the_kernels_error(self, toy):
        state = toy_state("poison", "spin")
        with pytest.raises(ProtocolError) as plain:
            solo_run_value(toy, state, 1, 3)
        memo = StepMemo(toy)
        entry = memo.intern(state)
        for _ in range(2):
            with pytest.raises(ProtocolError) as memoised:
                cycle_is_of_violation(memo, entry, (1, 1))
            assert str(memoised.value) == str(plain.value)

    def test_other_errors_propagate_and_are_not_stored(self, toy):
        memo = StepMemo(toy)
        entry = memo.intern(toy_state("broken", "spin"))
        for _ in range(2):
            with pytest.raises(ValueError, match="broken automaton"):
                memo.step(entry, 1)

    def test_the_search_step_raises_the_kernels_error(self, toy):
        state = toy_state("poison", "spin")
        with pytest.raises(ProtocolError) as plain:
            step_value(toy, state, 1)
        memo = StepMemo(toy)
        entry = memo.intern(state)
        # An out-of-range register has no pending physical register.
        assert memo.context(entry) == ((1, 2), {1: None, 2: None})
        for _ in range(2):
            with pytest.raises(ProtocolError) as searched:
                memo.advance(entry, 1)
            assert str(searched.value) == str(plain.value)

    def test_a_raising_next_op_fails_on_the_step(self, toy):
        memo = StepMemo(toy)
        entry = memo.intern(toy_state("mute", "spin"))
        assert memo.context(entry) == ((1, 2), {1: None, 2: None})
        assert memo.advance(entry, 2) == entry  # 2 spins in place
        for _ in range(2):
            with pytest.raises(ValueError, match="mute automaton"):
                memo.advance(entry, 1)


class TestDfOracleConditions:
    """Each condition of the deadlock-freedom oracle on cycles that close;
    the figure-1 instances cannot close one through the critical section
    or while a process has halted."""

    @pytest.mark.parametrize("first, second, cycle, expected", [
        ("spin", "spin", (1, 2), True),
        ("spin", "spin", (1,), False),  # unfair: 2 is live and never steps
        ("spin", "done", (1,), True),  # fairness covers live processes only
        ("try", "try", (1, 1, 2, 2), False),  # both pass through the CS
    ])
    def test_closed_cycles(self, toy, first, second, cycle, expected):
        entry = toy_state(first, second)
        memo = StepMemo(toy)
        assert cycle_is_df_violation(memo, memo.intern(entry), cycle) is expected
        assert reference_df(toy, entry, cycle) is expected


class TestShrinkSafetyMatchesAReferenceDdmin:
    @settings(max_examples=30, deadline=None)
    @given(schedule=st.lists(st.sampled_from(PIDS), max_size=60))
    @example(schedule=[101] * 15)  # 101 alone reaches its critical section
    @example(schedule=[103] * 10)  # 101 never moves
    def test_shrink_safety_on_mutex3(self, mutex3, schedule):
        _, _, instance, initial = mutex3

        def violates(candidate):
            state = replay_values(instance, initial, candidate)
            return (
                state is not None
                and holds_101_in_cs(StateView(instance, state)) is not None
            )

        # Cut the schedule where 101 first holds the critical section.
        cut = None
        state = initial
        for position, pid in enumerate(schedule, start=1):
            state = replay_values(instance, state, (pid,))
            if state is None:
                break
            if holds_101_in_cs(StateView(instance, state)) is not None:
                cut = position
                break
        memo = StepMemo(instance)
        if cut is None:
            with pytest.raises(FuzzError):
                shrink_safety(memo, initial, schedule, holds_101_in_cs)
            return
        witness = tuple(schedule[:cut])
        shrunk = shrink_safety(memo, initial, witness, holds_101_in_cs)
        assert shrunk == _ddmin(witness, violates)
        assert violates(shrunk)
