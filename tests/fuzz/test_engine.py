"""Engine acceptance tests: the mutant is found, clean instances stay
clean, every reported witness replays on a live system, the run is a
pure function of its seed, and a search step or hook that fails fails
the run."""

import dataclasses

import pytest

from repro.core.mutex import AnonymousMutexProcess
from repro.errors import ConfigurationError, FuzzError, ProtocolError
from repro.fuzz import engine
from repro.fuzz.engine import run_fuzz
from repro.request import RunRequest, resolve_target
from repro.runtime.kernel import StepInstance
from repro.runtime.ops import ReadOp
from repro.runtime.replay import replay_schedule

EPISODES = 16  # the shared budget: enough for every family to fire 4x


def fuzz(instance, seed=7, episodes=EPISODES, **kwargs):
    return run_fuzz(
        RunRequest(problem="figure-1-mutex", instance=instance, seed=seed),
        episodes=episodes,
        **kwargs,
    )


@pytest.fixture(scope="module")
def mutant_report():
    return fuzz("figure-1-mutex-even-m")


class TestAcceptance:
    def test_mutant_deterministically_found(self, mutant_report):
        assert mutant_report.found
        assert mutant_report.instance == "figure-1-mutex-even-m(m=4)"
        kinds = {v.kind for v in mutant_report.violations}
        assert kinds == {"deadlock-freedom"}
        # the Theorem 3.4 lockstep template fires in episode 0
        first = mutant_report.violations[0]
        assert first.episode == 0 and first.family == "lockstep"
        assert "Theorem 3.4" in first.message

    def test_clean_instances_stay_clean_under_the_same_budget(self):
        # Sound oracles: a correct instance can never produce a hit, so
        # these assert soundness, not luck.
        for label in ("figure-1-mutex(m=3)", "figure-1-mutex(m=5)"):
            report = fuzz(label)
            assert not report.found, label
            assert report.episodes_run == EPISODES

    def test_seed_determinism(self, mutant_report):
        again = fuzz("figure-1-mutex-even-m")
        assert again.to_dict() == mutant_report.to_dict()

    def test_different_seed_different_schedules(self, mutant_report):
        other = fuzz("figure-1-mutex-even-m", seed=8)
        assert other.found  # the mutant falls to any seed...
        assert [v.schedule for v in other.violations] != [
            v.schedule for v in mutant_report.violations
        ]  # ...but via seed-specific schedules


class TestWitnessReplay:
    def test_every_shrunk_lasso_replays_via_replay_schedule(
        self, mutant_report
    ):
        # Independent of the engine's own certification: rebuild the
        # live system and drive the published witness through the
        # replay API a reader of the report would use.
        from repro.problems import get_problem

        spec = get_problem("figure-1-mutex-even-m")
        instance = spec.instance("figure-1-mutex-even-m(m=4)")
        for violation in mutant_report.violations:
            prefix = list(violation.shrunk_prefix)
            cycle = list(violation.shrunk_cycle)
            entry_system = spec.system(instance, record_trace=True)
            replay_schedule(entry_system, prefix)
            entry = entry_system.scheduler.capture_state()

            closed_system = spec.system(instance, record_trace=True)
            trace = replay_schedule(closed_system, prefix + cycle)
            assert len(trace.events) == len(prefix) + len(cycle)
            assert closed_system.scheduler.capture_state() == entry

    def test_shrunk_never_longer_than_raw(self, mutant_report):
        for violation in mutant_report.violations:
            assert len(violation.shrunk_cycle) <= len(violation.cycle)
            assert len(violation.shrunk_prefix) <= len(violation.prefix)


class _CountingSpec:
    """A problem spec whose ``system`` builds are counted."""

    def __init__(self, spec):
        self.spec = spec
        self.builds = 0

    def system(self, *args, **kwargs):
        self.builds += 1
        return self.spec.system(*args, **kwargs)


class TestLassoCertification:
    """``_validate_lasso`` replays each lasso once, on one fresh system,
    and rejects a lasso that does not hold up with a pinned message."""

    spec, record = resolve_target("figure-1-mutex", "figure-1-mutex-even-m")

    def validate(self, violation, spec=None):
        instance = StepInstance.from_system(self.spec.system(self.record))
        engine._validate_lasso(
            spec or self.spec, self.record, instance, violation
        )

    def rejection(self, prefix, cycle, kind="deadlock-freedom"):
        violation = engine.FuzzViolation(
            kind=kind, family="lockstep", episode=0, message="",
            schedule=prefix + cycle, shrunk_prefix=prefix, shrunk_cycle=cycle,
        )
        with pytest.raises(FuzzError) as error:
            self.validate(violation)
        return str(error.value)

    def solo_halts(self):
        """The two pids and the solo steps after which each halts."""
        system = self.spec.system(self.record)
        p, q = sorted(system.pids)
        return (
            p, q,
            system.scheduler.run_solo_until_halt(p),
            system.scheduler.run_solo_until_halt(q),
        )

    def test_a_prefix_past_every_halt_does_not_replay(self):
        p, q, solo_p, solo_q = self.solo_halts()
        prefix = (p,) * solo_p + (q,) * solo_q + (p,)
        assert self.rejection(prefix, (p,)) == (
            "lasso prefix did not replay on a fresh system"
        )

    def test_a_cycle_past_every_halt_does_not_replay(self):
        p, q, solo_p, solo_q = self.solo_halts()
        prefix = (p,) * solo_p + (q,) * (solo_q - 1)
        assert self.rejection(prefix, (q, q)) == (
            "lasso cycle did not replay on a fresh system"
        )

    def test_a_cycle_that_moves_on_does_not_close(self):
        p = min(self.spec.system(self.record).pids)
        assert self.rejection((), (p,)) == (
            "lasso cycle does not close back to its entry state"
        )

    def test_a_closed_cycle_the_oracle_rejects(self, mutant_report):
        lasso = mutant_report.violations[0]
        assert len(set(lasso.shrunk_cycle)) == 2  # not a solo cycle
        # The same closed cycle, claimed as a solo livelock.
        message = self.rejection(
            lasso.shrunk_prefix, lasso.shrunk_cycle, kind="obstruction-freedom"
        )
        assert message == (
            "replayed lasso no longer satisfies the obstruction-freedom "
            "violation conditions"
        )

    def test_one_system_per_certified_lasso(self, mutant_report):
        for lasso in mutant_report.violations:
            counting = _CountingSpec(self.spec)
            self.validate(lasso, spec=counting)
            assert counting.builds == 1


class TestBudgets:
    def test_max_violations_stops_the_run(self):
        report = fuzz("figure-1-mutex-even-m", max_violations=1)
        assert len(report.violations) == 1
        assert report.episodes_run < EPISODES

    def test_max_states_truncates_with_reason(self):
        report = run_fuzz(
            RunRequest(
                problem="figure-1-mutex",
                instance="figure-1-mutex(m=3)",
                seed=7,
                max_states=40,
            ),
            episodes=EPISODES,
        )
        assert report.truncated_by == "max_states"
        assert report.episodes_run < EPISODES

    def test_zero_episodes_is_a_clean_noop(self):
        report = fuzz("figure-1-mutex(m=3)", episodes=0)
        assert report.episodes_run == 0 and report.steps == 0
        assert not report.found

    def test_negative_episodes_rejected(self):
        with pytest.raises(FuzzError, match="episodes must be >= 0"):
            fuzz("figure-1-mutex(m=3)", episodes=-1)


class TestConfiguration:
    def test_compiled_kernel_rejected(self):
        with pytest.raises(ConfigurationError) as error:
            run_fuzz(
                RunRequest(
                    problem="figure-1-mutex",
                    instance="figure-1-mutex(m=3)",
                    kernel="compiled",
                )
            )
        assert str(error.value) == (
            "fuzzing steps the interpreted kernel through the run's step "
            "memo; got kernel='compiled' (leave kernel unset)"
        )

    def test_interpreted_kernel_runs(self, mutant_report):
        report = run_fuzz(
            RunRequest(
                problem="figure-1-mutex",
                instance="figure-1-mutex-even-m",
                seed=7,
                kernel="interpreted",
            ),
            episodes=EPISODES,
        )
        assert report.to_dict() == mutant_report.to_dict()
        assert report.to_dict()["kernel"] == "interpreted"
        assert report.to_dict()["effective_kernel"] == "interpreted"

    def test_unknown_family_rejected_before_any_episode(self):
        with pytest.raises(FuzzError, match="unknown strategy family"):
            fuzz("figure-1-mutex(m=3)", families=["random", "zigzag"])

    def test_family_subset_restricts_the_rotation(self):
        report = fuzz("figure-1-mutex-even-m", families=["random"], episodes=4)
        assert report.families == ("random",)
        assert all(v.family == "random" for v in report.violations)

    def test_by_family_includes_zero_rows(self):
        report = fuzz("figure-1-mutex(m=3)", episodes=4)
        assert report.by_family() == {
            "lockstep": 0, "random": 0, "greedy": 0, "covering": 0,
        }


class TestEpisodeSharding:
    def test_episode_base_reproduces_the_one_shot_suffix(self, mutant_report):
        # A farm cell covering episodes [8, 16) must reproduce exactly
        # the violations the one-shot run attributed to those episodes.
        shard = fuzz("figure-1-mutex-even-m", episodes=8, episode_base=8)
        expected = [
            v.to_dict()
            for v in mutant_report.violations
            if 8 <= v.episode < 16
        ]
        assert [v.to_dict() for v in shard.violations] == expected


class TestCoverage:
    def test_states_the_shrinker_interns_do_not_count(self, monkeypatch):
        # The run's memo also holds every state ddmin replayed to; the
        # coverage and the max_states budget count the search's alone.
        memos = []

        class RecordingMemo(engine.StepMemo):
            def __init__(self, *args):
                super().__init__(*args)
                memos.append(self)

        monkeypatch.setattr(engine, "StepMemo", RecordingMemo)
        searched = fuzz("figure-1-mutex-even-m", shrink=False, validate=False)
        memos.clear()
        shrunk = fuzz("figure-1-mutex-even-m")
        assert shrunk.found
        assert len(memos[0].states) > shrunk.distinct_states
        assert shrunk.distinct_states == searched.distinct_states

        budget = searched.distinct_states // 2
        cut = [
            run_fuzz(
                RunRequest(
                    problem="figure-1-mutex",
                    instance="figure-1-mutex-even-m",
                    seed=7,
                    max_states=budget,
                ),
                episodes=EPISODES,
                shrink=shrink,
                validate=shrink,
            )
            for shrink in (False, True)
        ]
        assert cut[0].truncated_by == cut[1].truncated_by == "max_states"
        assert cut[0].episodes_run == cut[1].episodes_run < EPISODES
        assert cut[0].steps == cut[1].steps
        assert cut[0].distinct_states == cut[1].distinct_states


def fuzz_m3(episodes=8):
    return run_fuzz(
        RunRequest(
            problem="figure-1-mutex",
            instance="figure-1-mutex(m=3)",
            seed=7,
        ),
        episodes=episodes,
    )


@pytest.fixture
def collect_op(monkeypatch):
    """Replace the mutex's pending operation on its last collect read
    (m=3) with ``op(automaton)``."""
    plain = AnonymousMutexProcess.next_op

    def install(op):
        def next_op(automaton, state):
            if state.pc == "collect" and state.j == 2:
                return op(automaton)
            return plain(automaton, state)

        monkeypatch.setattr(AnonymousMutexProcess, "next_op", next_op)

    return install


def raising_invariant(system):
    runtime = system.scheduler.runtime(101)
    if runtime.automaton.in_critical_section(runtime.state):
        raise RuntimeError("the invariant raised: 101 is in its critical section")
    return None


class TestSearchFailures:
    def test_a_rejected_step_raises_the_kernels_error(self, collect_op):
        collect_op(lambda automaton: ReadOp(99))
        with pytest.raises(ProtocolError) as error:
            fuzz_m3()
        assert str(error.value) == "process 101: register index 99 out of range 0..2"

    def test_a_raising_next_op_fails_on_the_step(self, collect_op):
        def raising(automaton):
            raise RuntimeError(f"next_op raised on process {automaton.pid}")

        collect_op(raising)
        with pytest.raises(RuntimeError, match="^next_op raised on process 101$"):
            fuzz_m3()

    def test_a_raising_invariant_propagates(self, monkeypatch):
        spec, record = resolve_target("figure-1-mutex", "figure-1-mutex(m=3)")
        patched = dataclasses.replace(spec, invariant=raising_invariant)
        monkeypatch.setattr(RunRequest, "resolve", lambda request: (patched, record))
        with pytest.raises(RuntimeError, match="^the invariant raised"):
            fuzz_m3()


@pytest.fixture
def counted(monkeypatch):
    """Count the engine's lasso shrinker and validator calls by name."""
    calls = {}

    def count(name):
        real = getattr(engine, name)
        calls[name] = 0

        def counting(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, name, counting)

    for name in ("shrink_lasso", "_validate_lasso"):
        count(name)
    return calls


def witness(violation):
    """The raw witness a lasso's certification is keyed by."""
    return (violation.kind, violation.prefix, violation.cycle)


def mutant_request(seed=7, **fields):
    return RunRequest(
        problem="figure-1-mutex", instance="figure-1-mutex-even-m",
        seed=seed, **fields,
    )


class TestCertifiedWitnesses:
    """A run's step memo certifies each distinct raw lasso witness once:
    a repeat is published with the stored shrunk form, without
    shrinking or replaying it again."""

    @pytest.mark.parametrize("seed, hits, distinct", [
        (7, 171, 83), (11, 172, 86), (12345, 188, 100),
    ])
    def test_a_repeated_lasso_is_shrunk_and_validated_once(
        self, counted, seed, hits, distinct
    ):
        report = run_fuzz(mutant_request(seed, max_steps=256), episodes=256)
        assert len(report.violations) == hits
        assert counted["shrink_lasso"] == counted["_validate_lasso"] == distinct
        first = {}
        for violation in report.violations:
            earlier = first.setdefault(witness(violation), violation)
            assert violation == dataclasses.replace(
                earlier, family=violation.family, episode=violation.episode,
                schedule=violation.schedule,
            )
        assert len(first) == distinct

    def test_the_report_is_the_one_certifying_every_hit_gives(
        self, counted, monkeypatch
    ):
        cached = run_fuzz(mutant_request(), episodes=64).to_dict()

        class ForgetfulMemo(engine.StepMemo):
            """A memo whose table forgets every witness it is given."""

            certified = property(lambda self: {}, lambda self, value: None)

        monkeypatch.setattr(engine, "StepMemo", ForgetfulMemo)
        counted["_validate_lasso"] = 0
        assert run_fuzz(mutant_request(), episodes=64).to_dict() == cached
        assert counted["_validate_lasso"] == len(cached["violations"])

    def test_a_failed_certification_is_never_stored(self, monkeypatch):
        calls = []

        def refusing(*args):
            calls.append(None)
            raise FuzzError("certification refused")

        monkeypatch.setattr(engine, "_validate_lasso", refusing)
        memos = {}
        for attempt in range(1, 4):
            with pytest.raises(FuzzError, match="certification refused"):
                run_fuzz(mutant_request(), episodes=1, memos=memos)
            assert len(calls) == attempt
        (memo,) = memos.values()
        assert memo.certified == {}

    @pytest.mark.parametrize("shrink, validate", [
        (False, True), (True, False), (False, False),
    ])
    def test_a_run_that_skips_a_gate_leaves_the_table_alone(
        self, shrink, validate
    ):
        raw = run_fuzz(mutant_request(), episodes=1, shrink=False, validate=False)
        (hit,) = raw.violations
        planted = ((), (hit.cycle[0],))  # not this lasso's shrunk form
        memos = {}
        first = run_fuzz(
            mutant_request(), episodes=1, shrink=shrink, validate=validate,
            memos=memos,
        )
        (memo,) = memos.values()
        assert memo.certified == {}  # nothing written
        memo.certified[witness(hit)] = planted
        again = run_fuzz(
            mutant_request(), episodes=1, shrink=shrink, validate=validate,
            memos=memos,
        )
        assert again.to_dict() == first.to_dict()  # nothing read
        assert memo.certified == {witness(hit): planted}
        # A run that shrinks and validates reads the planted entry: the
        # table, not the shrinker, decides a known witness's shrunk form.
        (trusted,) = run_fuzz(mutant_request(), episodes=1, memos=memos).violations
        assert (trusted.shrunk_prefix, trusted.shrunk_cycle) == planted

    def test_targets_sharing_a_memo_dict_never_share_entries(self):
        requests = [
            mutant_request(),
            RunRequest(
                problem="figure-1-mutex-even-m", params={"m": 6}, seed=7
            ),
        ]
        fresh = [run_fuzz(request, episodes=16) for request in requests]
        memos = {}
        for _ in range(2):
            for request, expected in zip(requests, fresh):
                report = run_fuzz(request, episodes=16, memos=memos)
                assert report.to_dict() == expected.to_dict()
        assert sorted(memos) == sorted(
            (report.problem, report.instance) for report in fresh
        )
        for report in fresh:
            memo = memos[report.problem, report.instance]
            assert set(memo.certified) == {
                witness(v) for v in report.violations
            }
        tables = [memo.certified for memo in memos.values()]
        assert tables[0] is not tables[1]
