"""Unit tests for the canonical state encoding and symmetry group."""

import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.core.consensus import AnonymousConsensus
from repro.core.mutex import AnonymousMutex
from repro.memory.naming import RingNaming
from repro.runtime.automaton import ProcessAutomaton
from repro.runtime.canonical import (
    SYMMETRY_HOOKS,
    TrivialCanonicalizer,
    build_canonicalizer,
    hook_owner,
    stable_encode,
)
from repro.runtime.system import System

from tests.conftest import pids
from tests.lint.mutants import MutantAlgorithm, PidArithmeticProcess

REPO = Path(__file__).resolve().parents[2]


def mutex_system(m=3, naming=None, **kwargs):
    return System(
        AnonymousMutex(m=m, cs_visits=1, **kwargs),
        pids(2),
        naming=naming,
        record_trace=False,
    )


def consensus_system(n=2, inputs=None, registers=None):
    if inputs is None:
        inputs = {pid: f"v{k}" for k, pid in enumerate(pids(n))}
    return System(
        AnonymousConsensus(n=n, registers=registers), inputs, record_trace=False
    )


class TestHookOwnership:
    def test_shipped_automata_have_trusted_owners(self):
        from repro.core.renaming import AnonymousRenaming

        for algorithm in (
            AnonymousMutex(m=3),
            AnonymousConsensus(n=2),
            AnonymousRenaming(n=2),
        ):
            automaton = algorithm.automaton_for(101, "v")
            cls = type(automaton)
            assert hook_owner(cls) is cls

    def test_base_defaults_are_not_trusted(self):
        assert hook_owner(ProcessAutomaton) is None

    def test_subclass_overriding_behaviour_kills_trust(self):
        # A subclass that tweaks any behaviour method may invalidate the
        # semantic claims the parent's hooks make.
        base = type(AnonymousMutex(m=3).automaton_for(101, None))

        class Tweaked(base):
            def next_op(self, state):
                return super().next_op(state)

        assert hook_owner(base) is base
        assert hook_owner(Tweaked) is None

    def test_partial_hook_bundle_is_not_trusted(self):
        class Partial(ProcessAutomaton):
            def state_footprint(self, state):
                return state

        assert len(SYMMETRY_HOOKS) == 4
        assert hook_owner(Partial) is None

    def test_mutants_degrade_to_trivial(self):
        system = System(
            MutantAlgorithm(PidArithmeticProcess), pids(2), record_trace=False
        )
        canonicalizer = build_canonicalizer(system)
        assert isinstance(canonicalizer, TrivialCanonicalizer)
        assert canonicalizer.group_order == 1
        assert not canonicalizer.uses_footprints


class TestGroupConstruction:
    def test_two_process_mutex_has_swap(self):
        canonicalizer = build_canonicalizer(mutex_system())
        assert canonicalizer.group_order == 2
        assert canonicalizer.uses_footprints

    def test_distinct_inputs_induce_value_renaming(self):
        # Distinct consensus inputs do not block the swap: nu is forced
        # to exchange the two input values.
        canonicalizer = build_canonicalizer(consensus_system(n=2))
        assert canonicalizer.group_order == 2

    def test_inconsistent_inputs_shrink_the_group(self):
        # Two "a" processes and one "b": only the a<->a swap survives.
        inputs = dict(zip(pids(3), ("a", "a", "b")))
        canonicalizer = build_canonicalizer(consensus_system(n=3, inputs=inputs))
        assert canonicalizer.group_order == 2

    def test_equal_inputs_give_full_symmetric_group(self):
        inputs = {pid: "same" for pid in pids(3)}
        canonicalizer = build_canonicalizer(consensus_system(n=3, inputs=inputs))
        assert canonicalizer.group_order == 6

    def test_max_group_cap_collapses_to_identity(self):
        inputs = {pid: "same" for pid in pids(3)}
        canonicalizer = build_canonicalizer(
            consensus_system(n=3, inputs=inputs), max_group=2
        )
        assert canonicalizer.group_order == 1
        assert canonicalizer.group_capped

    def test_symmetry_flag_off_gives_identity_group(self):
        canonicalizer = build_canonicalizer(mutex_system(), symmetry=False)
        assert canonicalizer.group_order == 1

    def test_ring_naming_couples_register_rotation(self):
        # Under equispaced ring naming the two processes see the four
        # registers rotated by two; the induced pi is that rotation, not
        # the identity.
        naming = RingNaming.equispaced(pids(2), 4)
        system = mutex_system(m=4, naming=naming, unsafe_allow_any_m=True)
        canonicalizer = build_canonicalizer(system)
        assert canonicalizer.group_order == 2
        (element,) = canonicalizer._elements
        assert element.source_phys != tuple(range(4))


def keys_after(system, canonicalizer, initial, schedule):
    system.scheduler.restore_state(initial)
    for pid in schedule:
        system.scheduler.step(pid)
    return canonicalizer.key_of_state(system.scheduler.capture_state())


class TestOrbitInvariance:
    def orbit_check(self, system, schedule, sigma):
        """Running sigma(schedule) must reach the same canonical key."""
        canonicalizer = build_canonicalizer(system)
        initial = system.scheduler.capture_state()
        key_a, raw_a = keys_after(system, canonicalizer, initial, schedule)
        key_b, raw_b = keys_after(
            system, canonicalizer, initial, [sigma[pid] for pid in schedule]
        )
        assert key_a == key_b
        return raw_a, raw_b

    def test_mutex_states_collapse_under_swap(self):
        p, q = pids(2)
        raw_a, raw_b = self.orbit_check(mutex_system(), [p, p, p], {p: q, q: p})
        # The images are genuinely different states (different writer).
        assert raw_a != raw_b

    def test_consensus_states_collapse_under_swap_with_renaming(self):
        p, q = pids(2)
        raw_a, raw_b = self.orbit_check(
            consensus_system(n=2), [p, p, p, q], {p: q, q: p}
        )
        assert raw_a != raw_b

    def test_ring_naming_states_collapse_across_physical_registers(self):
        p, q = pids(2)
        naming = RingNaming.equispaced(pids(2), 4)
        system = mutex_system(m=4, naming=naming, unsafe_allow_any_m=True)
        # p's first write lands in a different physical register than
        # q's, so the collapse exercises the register permutation.
        self.orbit_check(system, [p, p], {p: q, q: p})

    def test_asymmetric_schedules_do_not_collapse(self):
        p, q = pids(2)
        system = mutex_system()
        canonicalizer = build_canonicalizer(system)
        initial = system.scheduler.capture_state()
        key_a, _ = keys_after(system, canonicalizer, initial, [p])
        key_b, _ = keys_after(system, canonicalizer, initial, [p, p, p])
        assert key_a != key_b


class TestCompactEncoding:
    def test_trivial_keys_equal_raw_keys(self):
        system = mutex_system()
        canonicalizer = TrivialCanonicalizer(system.scheduler)
        key, raw = canonicalizer.key_of_state(system.scheduler.capture_state())
        assert key == raw

    def test_keys_are_stable_across_restore(self):
        system = mutex_system()
        scheduler = system.scheduler
        canonicalizer = TrivialCanonicalizer(scheduler)
        p, _ = pids(2)
        scheduler.step(p)
        snapshot = scheduler.capture_state()
        key_before, _ = canonicalizer.key_of_state(snapshot)
        scheduler.step(p)
        scheduler.restore_state(snapshot)
        key_after, _ = canonicalizer.key_of_state(scheduler.capture_state())
        assert key_before == key_after

    def test_interning_is_injective_along_a_run(self):
        # Raw key equality must coincide with captured-state equality —
        # the seed explorer's deduplication criterion.
        system = mutex_system()
        scheduler = system.scheduler
        canonicalizer = TrivialCanonicalizer(scheduler)
        seen = {}
        p, q = pids(2)
        for step in range(60):
            pid = (p, q)[step % 2]
            if not scheduler.runtime(pid).enabled:
                break
            scheduler.step(pid)
            state = scheduler.capture_state()
            key, raw = canonicalizer.key_of_state(state)
            assert key == raw
            if key in seen:
                assert seen[key] == state
            else:
                seen[key] = state
        assert len(seen) > 10
        assert canonicalizer.interned_objects > 0

    def test_describe_mentions_group_and_footprints(self):
        description = build_canonicalizer(mutex_system()).describe()
        assert "group=2" in description
        assert "footprints=on" in description


@dataclass(frozen=True)
class _Point:
    x: int
    y: int


@dataclass(frozen=True)
class _Pair:
    x: int
    y: int


class TestStableEncode:
    """The content-addressed encoding under the digest layer.

    Key equality across OS processes (farm workers digest the graphs
    of their verify cells; ``TestCanonicalizerKeys`` pins keys under
    two hash seeds) needs the encoding to be a pure function of value
    *content* and injective across the value shapes the model traffics
    in.
    """

    def test_container_shapes_never_collide(self):
        values = [12, "12", (1, 2), [1, 2], ("12",), ("1", "2"), b"12",
                  frozenset({1, 2}), {1: 2}, 12.0, None]
        encodings = [stable_encode(value) for value in values]
        assert len(set(encodings)) == len(encodings)

    def test_bool_is_not_int(self):
        assert stable_encode(True) != stable_encode(1)
        assert stable_encode(False) != stable_encode(0)

    def test_unordered_containers_encode_order_free(self):
        assert stable_encode({3, 1, 2}) == stable_encode({2, 3, 1})
        assert stable_encode({"a": 1, "b": 2}) == stable_encode(
            dict([("b", 2), ("a", 1)])
        )

    def test_length_delimiting_blocks_boundary_shifts(self):
        assert stable_encode(("ab", "c")) != stable_encode(("a", "bc"))
        assert stable_encode((1, (2,))) != stable_encode(((1,), 2))

    def test_dataclasses_encode_class_and_fields(self):
        assert stable_encode(_Point(1, 2)) == stable_encode(_Point(1, 2))
        assert stable_encode(_Point(1, 2)) != stable_encode(_Point(2, 1))
        # Same field values, different class: distinct states.
        assert stable_encode(_Point(1, 2)) != stable_encode(_Pair(1, 2))

    def test_encoding_is_reproducible(self):
        nested = {"k": [(_Point(1, 2), frozenset({"a", "b"})), None, True]}
        rebuilt = {"k": [(_Point(1, 2), frozenset({"b", "a"})), None, True]}
        assert stable_encode(nested) == stable_encode(rebuilt)


def keyed_walk(steps=60):
    """Hex ``(canonical, raw)`` keys of each state on a seeded mutex walk."""
    system = mutex_system()
    canonicalizer = build_canonicalizer(system)
    scheduler = system.scheduler
    rng = random.Random(23)
    keys = []
    for _ in range(steps):
        keys.append(tuple(
            key.hex()
            for key in canonicalizer.key_of_state(scheduler.capture_state())
        ))
        enabled = scheduler.enabled_pids()
        if not enabled:
            break
        scheduler.step(rng.choice(enabled))
    return keys


class TestCanonicalizerKeys:
    """Keys depend on neither the interning order nor the process."""

    def test_fresh_canonicalizers_agree_on_keys(self):
        # Content addressing: no interning-order dependence.  Two
        # canonicalizers that digest states in different orders must
        # still emit identical keys for identical states.
        system_a, system_b = mutex_system(), mutex_system()
        canon_a = build_canonicalizer(system_a)
        canon_b = build_canonicalizer(system_b)
        p, q = pids(2)
        # Walk A forward, then key the shared schedule's states; walk B
        # keys them cold, in reverse.
        schedule = [p, q, p, q, q, p, p, q]
        states = []
        for pid in schedule:
            system_a.scheduler.step(pid)
            states.append(system_a.scheduler.capture_state())
        keys_a = [canon_a.key_of_state(state) for state in states]
        keys_b = list(reversed(
            [canon_b.key_of_state(state) for state in reversed(states)]
        ))
        assert keys_a == keys_b

    def test_keys_do_not_depend_on_the_hash_seed(self):
        # Content addressing across processes: fresh interpreters under
        # two hash seeds key the same walk's states as this one does.
        expected = str(keyed_walk())
        for seed in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-c",
                 "from tests.runtime.test_canonical import keyed_walk; "
                 "print(keyed_walk())"],
                capture_output=True, text=True, cwd=REPO,
                env={"PYTHONPATH": f"{REPO / 'src'}:{REPO}",
                     "PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout.strip() == expected, seed
