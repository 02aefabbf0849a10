"""Differential + property validation of the table-compiled step kernel.

The compiled backend's contract is *bit-identity*: on every instance it
can compile it must reproduce the serial backend's results exactly —
verdict, counters, violation text and schedule, retained graph bytes —
at a fraction of the wall time; on everything else it must fall back to
the interpreter wholesale (``kernel == "interpreted"``) rather than
degrade semantics.
"""

import re
from dataclasses import dataclass
from functools import cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mutex import AnonymousMutex
from repro.errors import ConfigurationError
from repro.obs import Telemetry
from repro.problems import get_problem, instances_with_role, problem_specs
from repro.request import RunRequest
from repro.runtime import compiled as compiled_module
from repro.runtime.automaton import Algorithm, ProcessAutomaton
from repro.runtime.backends import SerialBackend
from repro.runtime.canonical import TrivialCanonicalizer, build_canonicalizer
from repro.runtime.compiled import CompiledBackend, compile_program
from repro.runtime.exploration import (
    agreement_invariant,
    conjoin,
    explore,
    mutual_exclusion_invariant,
    unique_names_invariant,
    validity_invariant,
)
from repro.runtime.kernel import StepInstance, enabled_pids, step_value
from repro.runtime.ops import NoOp, ReadOp, WriteOp
from repro.runtime.system import System

from tests.conftest import pids
from tests.lint.mutants import ALL_MUTANTS, HOOKED_MUTANTS, MutantAlgorithm
from tests.runtime.test_exploration_differential import (
    SHIPPED_INSTANCES,
    VIOLATING_INSTANCES,
    null_invariant,
)


def fingerprint(result):
    """Every observable field the two backends must agree on."""
    return (
        result.ok,
        result.complete,
        result.truncated_by,
        result.violation,
        result.violation_schedule,
        result.states_explored,
        result.events_executed,
        result.max_depth_reached,
        result.stuck_states,
        result.orbits_collapsed,
        result.peak_visited,
    )


def mutex_system(m=3):
    return System(AnonymousMutex(m=m, cs_visits=1), pids(2), record_trace=False)


CONSENSUS = get_problem("figure-2-consensus")


def consensus_n3_system():
    """Three processes with equal inputs: a symmetry group of order 6."""
    return CONSENSUS.system(CONSENSUS.instance("figure-2-consensus(n=3,equal)"))


def canonicalizer_for(system, reduction):
    if reduction == "trivial":
        return TrivialCanonicalizer(system.scheduler)
    return build_canonicalizer(system)


TRUNCATED_WALKS = [
    pytest.param(
        lambda: mutex_system(m=5),
        mutual_exclusion_invariant,
        dict(max_states=5_000),
        id="mutex-m5-max_states",
    ),
    pytest.param(
        lambda: mutex_system(m=5),
        mutual_exclusion_invariant,
        dict(max_depth=25),
        id="mutex-m5-max_depth",
    ),
    pytest.param(
        consensus_n3_system,
        CONSENSUS.invariant,
        dict(max_states=3_000),
        id="consensus-n3-max_states",
    ),
    pytest.param(
        consensus_n3_system,
        CONSENSUS.invariant,
        dict(max_depth=30),
        id="consensus-n3-max_depth",
    ),
]


#: Every early budget cut of two-process mutex m=3 (1,747 states, depth
#: 75; under symmetry 771 states, depth 44).  Its max_states cuts trip
#: in both unrolled per-pid branches of the two-process walk, the first
#: pid's and the second's.
EARLY_CUTS = [
    pytest.param(dict(max_states=n), id=f"max_states={n}") for n in range(1, 80)
] + [pytest.param(dict(max_depth=d), id=f"max_depth={d}") for d in range(40)]


class TestCompiledMatchesSerial:
    @pytest.mark.parametrize(
        "factory, invariant", SHIPPED_INSTANCES + VIOLATING_INSTANCES
    )
    @pytest.mark.parametrize("reduction", ["trivial", "symmetry"])
    def test_bit_identical(self, factory, invariant, reduction):
        def run(backend):
            system = factory()
            return explore(
                system,
                invariant,
                canonicalizer=canonicalizer_for(system, reduction),
                backend=backend,
            )

        serial = run(SerialBackend())
        compiled = run(CompiledBackend())
        assert fingerprint(serial) == fingerprint(compiled)
        assert compiled.backend == "compiled"
        assert compiled.kernel == "compiled"

    @pytest.mark.parametrize("factory, invariant, budgets", TRUNCATED_WALKS)
    @pytest.mark.parametrize("reduction", ["trivial", "symmetry"])
    def test_truncated_walks_are_bit_identical(
        self, factory, invariant, budgets, reduction
    ):
        def run(backend):
            system = factory()
            return explore(
                system,
                invariant,
                canonicalizer=canonicalizer_for(system, reduction),
                backend=backend,
                **budgets,
            )

        serial = run(SerialBackend())
        compiled = run(CompiledBackend())
        assert not serial.complete
        assert compiled.kernel == "compiled"
        assert fingerprint(serial) == fingerprint(compiled)

    @pytest.mark.parametrize("budgets", EARLY_CUTS)
    def test_every_early_cut_is_bit_identical(self, budgets):
        def run(backend):
            return explore(
                mutex_system(m=3),
                mutual_exclusion_invariant,
                backend=backend,
                **budgets,
            )

        serial = run(SerialBackend())
        compiled = run(CompiledBackend())
        assert not serial.complete
        assert compiled.kernel == "compiled"
        assert fingerprint(serial) == fingerprint(compiled)

    @pytest.mark.parametrize("budgets", EARLY_CUTS)
    def test_every_early_quotient_cut_is_bit_identical(self, budgets):
        def run(backend):
            system = mutex_system(m=3)
            return explore(
                system,
                mutual_exclusion_invariant,
                canonicalizer=build_canonicalizer(system),
                backend=backend,
                **budgets,
            )

        serial = run(SerialBackend())
        compiled = run(CompiledBackend())
        assert not serial.complete and serial.group_size == 2
        assert compiled.kernel == "compiled"
        assert fingerprint(serial) == fingerprint(compiled)


VERIFY_INSTANCES = list(instances_with_role("verify", include_mutants=True))

#: Budget cuts of retained walks, with the states explored / graph nodes
#: / edges both walks must report.  A max_states cut retains the
#: budget-tripping child as a never-expanded node (nodes = budget + 1).
RETAINED_CUTS = [
    pytest.param(
        "figure-1-mutex", "figure-1-mutex(m=5)", dict(max_states=3_000),
        (2_950, 3_001, 5_450), id="mutex-m5-max_states",
    ),
    pytest.param(
        "figure-1-mutex", "figure-1-mutex(m=5)", dict(max_depth=40),
        (11_591, 11_591, 21_107), id="mutex-m5-max_depth",
    ),
    pytest.param(
        "figure-2-consensus", "figure-2-consensus(n=2)", dict(max_states=500),
        (484, 501, 882), id="consensus-n2-max_states",
    ),
    pytest.param(
        "figure-2-consensus", "figure-2-consensus(n=2)", dict(max_depth=12),
        (138, 138, 218), id="consensus-n2-max_depth",
    ),
]


#: Complete retained walks: (system factory, invariant, state and depth
#: budget, compiled backend caps).  The verify-role instances, plus a
#: system whose register fields are zero bits wide and whose counter's
#: 8 local states fill its 3-bit slot field exactly.
RETAINED_GRAPHS = [
    pytest.param(
        partial(spec.system, inst),
        spec.invariant or null_invariant,
        inst.verify_max_states,
        {},
        id=inst.label,
    )
    for spec, inst in VERIFY_INSTANCES
] + [
    pytest.param(
        lambda: _boundary_system(),
        null_invariant,
        1_000,
        {"max_local_states": 8},
        id="field-width-boundaries",
    )
]


class TestRetainedGraph:
    @pytest.mark.parametrize("factory, invariant, budget, caps", RETAINED_GRAPHS)
    def test_graph_bytes_identical(self, factory, invariant, budget, caps):
        def run(backend):
            return explore(
                factory(),
                invariant,
                max_states=budget,
                max_depth=budget,
                backend=backend,
                retain_graph=True,
            )

        serial = run(SerialBackend())
        compiled = run(CompiledBackend(**caps))
        assert compiled.kernel == "compiled"
        assert fingerprint(serial) == fingerprint(compiled)
        assert serial.graph is not None and compiled.graph is not None
        assert serial.graph.to_bytes() == compiled.graph.to_bytes()

    @pytest.mark.parametrize(
        "factory, invariant", SHIPPED_INSTANCES + VIOLATING_INSTANCES
    )
    def test_shipped_and_violating_graph_bytes_identical(
        self, factory, invariant
    ):
        # Beyond the verify-role rows: a ring naming, equal consensus
        # inputs, and retaining walks a violation stops, three-slot ones
        # among them.
        serial, compiled = (
            explore(factory(), invariant, backend=backend, retain_graph=True)
            for backend in (SerialBackend(), CompiledBackend())
        )
        assert compiled.kernel == "compiled"
        assert fingerprint(serial) == fingerprint(compiled)
        assert serial.graph.complete is serial.complete
        assert compiled.graph.complete is compiled.complete
        frontiers = [
            {
                result.graph.key(node)
                for node in range(len(result.graph))
                if not result.graph.expanded(node)
            }
            for result in (serial, compiled)
        ]
        assert frontiers[0] == frontiers[1]
        assert serial.graph.to_bytes() == compiled.graph.to_bytes()

    @pytest.mark.parametrize("problem, label, budgets, sizes", RETAINED_CUTS)
    def test_truncated_graph_bytes_identical(self, problem, label, budgets, sizes):
        spec = get_problem(problem)
        inst = spec.instance(label)

        def run(backend):
            return explore(
                spec.system(inst),
                spec.invariant,
                backend=backend,
                retain_graph=True,
                **budgets,
            )

        serial = run(SerialBackend())
        compiled = run(CompiledBackend())
        assert compiled.kernel == "compiled"
        assert not serial.complete and not serial.graph.complete
        assert fingerprint(serial) == fingerprint(compiled)
        for result in (serial, compiled):
            graph = result.graph
            assert (result.states_explored, len(graph), graph.edge_count) == sizes
        # to_bytes() writes a never-expanded node like a terminal one
        # (no edges), so compare the frontier on its own.
        frontiers = [
            {
                result.graph.key(node)
                for node in range(len(result.graph))
                if not result.graph.expanded(node)
            }
            for result in (serial, compiled)
        ]
        assert frontiers[0] and frontiers[0] == frontiers[1]
        assert serial.graph.to_bytes() == compiled.graph.to_bytes()


class TestMutantsAgree:
    """The generic (no compiled suspect table) path, across every
    non-hooked lint mutant — including the two whose exploration raises,
    which the overflow path must reproduce with the same exception."""

    @pytest.mark.parametrize(
        "mutant_cls",
        [cls for cls, _pass in ALL_MUTANTS if cls not in HOOKED_MUTANTS],
        ids=[
            cls.__name__
            for cls, _pass in ALL_MUTANTS
            if cls not in HOOKED_MUTANTS
        ],
    )
    def test_mutant_exploration_is_bit_identical(self, mutant_cls):
        def build():
            return System(
                MutantAlgorithm(mutant_cls), pids(2), record_trace=False
            )

        budgets = dict(max_states=2_000, max_depth=200)
        outcomes = []
        for backend in (SerialBackend(), CompiledBackend()):
            system = build()
            try:
                result = explore(
                    system,
                    null_invariant,
                    canonicalizer=TrivialCanonicalizer(system.scheduler),
                    backend=backend,
                    **budgets,
                )
            except Exception as error:  # noqa: BLE001 — compared below
                outcomes.append(("raised", type(error).__name__))
            else:
                outcomes.append(fingerprint(result))
        assert outcomes[0] == outcomes[1]


def _compiled_mutex(m=3):
    system = mutex_system(m=m)
    instance = StepInstance.from_system(system)
    initial = system.scheduler.capture_state()
    return instance, initial, compile_program(instance, initial)


_MUTEX_PROGRAM = _compiled_mutex()


def _walk(instance, initial, choices):
    """A reachable state: follow the choice list through enabled pids."""
    state = initial
    for choice in choices:
        enabled = enabled_pids(instance, state)
        if not enabled:
            break
        state = step_value(instance, state, enabled[choice % len(enabled)])
    return state


class TestPackedStateProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=40))
    def test_pack_unpack_round_trips(self, choices):
        instance, initial, program = _MUTEX_PROGRAM
        state = _walk(instance, initial, choices)
        assert program.unpack(program.pack(state)) == state

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=40))
    def test_step_packed_agrees_with_interpreter(self, choices):
        instance, initial, program = _MUTEX_PROGRAM
        state = _walk(instance, initial, choices)
        packed = program.pack(state)
        for pid in enabled_pids(instance, state):
            slot = instance.slot_of[pid]
            assert program.step_packed(packed, slot) == program.pack(
                step_value(instance, state, pid)
            )


def compiled_program(system):
    return compile_program(
        StepInstance.from_system(system), system.scheduler.capture_state()
    )


def bfs_states(program, limit=200):
    """A deterministic sample of reachable packed states."""
    stride = len(program.initial_packed)
    seen = {program.initial_packed}
    frontier = [program.initial_packed]
    while frontier and len(seen) < limit:
        batch = []
        for state in frontier:
            batch.extend(state)
        children, edges = program.expand_batch(batch)
        frontier = []
        for base in range(0, len(children), stride):
            child = tuple(children[base : base + stride])
            if child not in seen:
                seen.add(child)
                frontier.append(child)
        del edges
    return sorted(seen)


#: The batch primitives perfbench's layer replay calls, on every
#: verify-role instance: mutex at three register counts and both
#: parities, consensus, renaming and election.
BATCH_SYSTEMS = [
    pytest.param(partial(spec.system, inst), id=inst.label)
    for spec, inst in VERIFY_INSTANCES
]


class TestExpandBatch:
    @pytest.mark.parametrize("build", BATCH_SYSTEMS)
    def test_matches_step_packed_edge_for_edge(self, build):
        program = compiled_program(build())
        states = bfs_states(program)
        stride = len(program.initial_packed)
        flat = []
        for state in states:
            flat.extend(state)
        children, edges = program.expand_batch(flat)
        live = program.live
        ci = 0
        expected_edges = []
        for src, state in enumerate(states):
            for _pid, s, off in program.step_order:
                if not live[s][state[off]]:
                    continue
                child = program.step_packed(state, s)
                inert = 1 if child == state else 0
                expected_edges.extend((src, s, inert))
                if not inert:
                    got = tuple(children[ci * stride : (ci + 1) * stride])
                    assert got == child, (src, s)
                    ci += 1
        assert expected_edges
        assert list(edges) == expected_edges
        assert ci * stride == len(children)

    @pytest.mark.parametrize("build", BATCH_SYSTEMS)
    def test_batch_of_one_equals_batch_of_many(self, build):
        program = compiled_program(build())
        states = bfs_states(program, limit=40)
        flat = []
        for state in states:
            flat.extend(state)
        children, edges = program.expand_batch(flat)
        singly_children = []
        singly_edges = []
        for src, state in enumerate(states):
            one_children, one_edges = program.expand_batch(list(state))
            singly_children.extend(one_children)
            for base in range(0, len(one_edges), 3):
                assert one_edges[base] == 0  # src index within its batch
                singly_edges.extend((src, one_edges[base + 1],
                                     one_edges[base + 2]))
        assert list(children) == singly_children
        assert list(edges) == singly_edges


class TestBatchDigests:
    @pytest.mark.parametrize("build", BATCH_SYSTEMS)
    @pytest.mark.parametrize("builder", [
        lambda system: TrivialCanonicalizer(system.scheduler),
        build_canonicalizer,
    ], ids=["trivial", "symmetry"])
    def test_batch_equals_singles(self, builder, build):
        system = build()
        program = compiled_program(system)
        # Digest tables over the whole closure, as the quotient walk
        # builds them.
        program.close()
        canonicalizer = builder(system)
        tables = canonicalizer.packed_digest_tables(
            program.values, program.states, program.halted, program.crashed
        )
        states = bfs_states(program, limit=60)
        m = program.m
        flat = []
        for state in states:
            flat.extend(state)
        batched = tables.batch_keys(flat, m)
        singles = [tables.batch_keys(state, m)[0] for state in states]
        assert batched == singles
        # Both halves are the canonicalizer's own keys of the unpacked
        # states.
        assert batched == [
            canonicalizer.key_of_state(program.unpack(state))
            for state in states
        ]
        # The trivial raw key is injective; a footprint may merge local
        # states (it does on consensus, renaming and election), and the
        # canonical key quotients the raw one.
        raw_keys = {raw for _, raw in batched}
        if isinstance(canonicalizer, TrivialCanonicalizer):
            assert len(raw_keys) == len(states)
        assert len({c for c, _ in batched}) <= len(raw_keys) <= len(states)


def _check_int_state(program, deltas, at, packed):
    """The int form of ``packed`` round-trips, and each enabled slot's
    delta-table successor is the int form of its ``step_packed`` child,
    with a zero delta exactly on the inert step."""
    state = program.encode(packed)
    assert program.decode(state) == packed
    live = program.live
    for slot in range(len(program.slots)):
        off = program.m + slot
        si = (state >> program.field_shift[off]) & program.field_mask[off]
        assert si == packed[off]
        if not live[slot][si]:
            continue
        child = program.step_packed(packed, slot)
        delta = deltas[slot][si][(state >> at[slot][si]) & program.value_mask]
        assert delta is not None
        assert state + delta == program.encode(child)
        assert (delta == 0) == (child == packed)


@dataclass(frozen=True)
class _Pc:
    pc: int = 0


class _Counter(ProcessAutomaton):
    """Steps through pcs 0..7 and halts: exactly 2**3 local states, with
    a write, reads and local steps on the way."""

    OPS = {
        0: WriteOp(0, 0),
        1: ReadOp(1),
        2: NoOp(),
        3: WriteOp(1, 0),
        4: ReadOp(0),
        5: NoOp(),
        6: ReadOp(0),
    }

    def initial_state(self):
        return _Pc()

    def is_halted(self, state):
        return state.pc == 7

    def next_op(self, state):
        return self.OPS[state.pc]

    def apply(self, state, op, result):
        return _Pc(state.pc + 1)


class _Spinner(ProcessAutomaton):
    """One local step, then a read that never changes anything: exactly
    2**1 local states, the second an inert self-loop."""

    def initial_state(self):
        return _Pc()

    def is_halted(self, state):
        return False

    def next_op(self, state):
        return NoOp() if state.pc == 0 else ReadOp(0)

    def apply(self, state, op, result):
        return _Pc(1)


class _BoundaryAlgorithm(Algorithm):
    """A counter and a spinner over registers that only ever hold 0: a
    one-value domain (zero-width register fields) and slots whose local
    states fill their fields exactly."""

    name = "field-width-boundaries"

    def register_count(self):
        return 2

    def automaton_for(self, pid, input=None):
        return _Counter() if pid == pids(1)[0] else _Spinner()


def _boundary_system():
    return System(_BoundaryAlgorithm(), pids(2), record_trace=False)


class TestIntStateProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=40))
    def test_int_states_match_packed_steps(self, choices):
        instance, initial, program = _MUTEX_PROGRAM
        deltas, at = program.delta_tables()
        state = _walk(instance, initial, choices)
        _check_int_state(program, deltas, at, program.pack(state))

    def test_field_width_boundaries(self):
        system = _boundary_system()
        instance = StepInstance.from_system(system)
        initial = system.scheduler.capture_state()
        program = compile_program(instance, initial, max_local_states=8)
        program.close()
        assert program.values == [0]
        assert [len(states) for states in program.states] == [8, 2]
        # Two 3-bit slot fields (the cap's width) lowest, then two
        # zero-width register fields.
        assert program.field_mask == (0, 0, 7, 7)
        assert program.field_shift == (6, 6, 0, 3)
        assert program.state_bits == 6
        deltas, at = program.delta_tables()
        reachable = {initial}
        frontier = [initial]
        while frontier:
            state = frontier.pop()
            _check_int_state(program, deltas, at, program.pack(state))
            for pid in enabled_pids(instance, state):
                child = step_value(instance, state, pid)
                if child not in reachable:
                    reachable.add(child)
                    frontier.append(child)
        ints = {program.encode(program.pack(state)) for state in reachable}
        assert len(ints) == len(reachable) == 16
        # The counter's 8 local states fill its slot field exactly.
        shift, mask = program.field_shift[2], program.field_mask[2]
        assert {(x >> shift) & mask for x in ints} == set(range(8))
        assert max(ints) < 2**program.state_bits

    def test_field_width_boundaries_walk_is_bit_identical(self):
        serial, compiled = (
            explore(_boundary_system(), null_invariant, backend=backend)
            for backend in (SerialBackend(), CompiledBackend())
        )
        assert compiled.kernel == "compiled"
        assert serial.complete and serial.states_explored == 16
        assert fingerprint(serial) == fingerprint(compiled)


class _Decider(ProcessAutomaton):
    """Decides a fixed value in one step.  The writer writes register 0
    and decides; a waiter spins on register 0, an exact self-loop, until
    it is written.  The symmetry hooks let processes that decide alike
    and wait alike swap."""

    def __init__(self, decision, waits):
        self.decision = decision
        self.waits = waits

    def initial_state(self):
        return _Pc()

    def is_halted(self, state):
        return state.pc == 1

    def next_op(self, state):
        return ReadOp(0) if self.waits else WriteOp(0, 1)

    def apply(self, state, op, result):
        return _Pc(1) if result or not self.waits else state

    def output(self, state):
        return self.decision if state.pc == 1 else None

    def symmetry_signature(self):
        return (self.decision, self.waits), None

    def state_footprint(self, state):
        return state

    def rename_state_footprint(self, footprint, pids_renamed, values_renamed):
        return footprint

    def rename_register_value(self, value, pids_renamed, values_renamed):
        return value


class _DecidersAlgorithm(Algorithm):
    """The last process writes, the others wait; process k decides
    ``decisions[k]``."""

    name = "deciders"

    def __init__(self, decisions):
        self.decisions = decisions

    def register_count(self):
        return 1

    def automaton_for(self, pid, input=None):
        k = pids(len(self.decisions)).index(pid)
        return _Decider(self.decisions[k], waits=k < len(self.decisions) - 1)


def _deciders_system(decisions):
    return System(
        _DecidersAlgorithm(decisions),
        {pid: "a" for pid in pids(len(decisions))},
        record_trace=False,
    )


#: (invariant, n -> decisions; every input is "a").  The writer decides
#: first, so the first violating state holds exactly the invariant's
#: flag threshold of decided processes: one for an out-of-range name or
#: an illegal value, two for disagreement.
FLAG_THRESHOLDS = [
    pytest.param(unique_names_invariant, lambda n: [99] * n, id="unique-names"),
    pytest.param(validity_invariant, lambda n: ["z"] * n, id="validity"),
    pytest.param(
        agreement_invariant, lambda n: ["a"] * (n - 1) + ["b"], id="agreement"
    ),
    pytest.param(
        conjoin(agreement_invariant, validity_invariant),
        lambda n: ["z"] * n,
        id="agreement-and-validity",
    ),
]


class TestSuspectFlags:
    """Each stock suspect's flags and threshold pass the states its
    violations need: in the two-slot walk, the generic trivial walk and,
    with three processes under symmetry (a group of order 2, waiters
    spinning in exact self-loops), the quotient walk."""

    @pytest.mark.parametrize("invariant, decide", FLAG_THRESHOLDS)
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("reduction", ["trivial", "symmetry"])
    def test_violation_at_the_threshold(self, invariant, decide, n, reduction):
        def run(backend):
            system = _deciders_system(decide(n))
            return explore(
                system,
                invariant,
                canonicalizer=canonicalizer_for(system, reduction),
                backend=backend,
            )

        serial, compiled = run(SerialBackend()), run(CompiledBackend())
        assert serial.truncated_by == "violation"
        assert serial.group_size == (2 if reduction == "symmetry" and n == 3 else 1)
        assert compiled.kernel == "compiled"
        assert fingerprint(compiled) == fingerprint(serial)

    @pytest.mark.parametrize("problem, label", [
        ("figure-2-consensus", "figure-2-consensus(n=2)"),  # threshold 1
        ("figure-3-renaming", "figure-3-renaming(n=2)"),  # threshold 1
        ("election", "election(n=2)"),  # threshold 2
    ])
    def test_plain_and_retaining_walks_decode_alike(
        self, monkeypatch, problem, label
    ):
        # A plain two-slot walk decodes only the states whose flags
        # reach the suspect's threshold, as the retaining walk does.
        decoded = []
        decode = compiled_module.CompiledProgram.decode

        def counting(program, state):
            decoded.append(state)
            return decode(program, state)

        monkeypatch.setattr(compiled_module.CompiledProgram, "decode", counting)
        spec = get_problem(problem)
        record = spec.instance(label)
        counts = []
        for retain_graph in (False, True):
            decoded.clear()
            result = explore(
                spec.system(record),
                spec.invariant,
                backend=CompiledBackend(),
                retain_graph=retain_graph,
            )
            assert result.kernel == "compiled" and result.complete
            assert result.states_explored == 2888
            counts.append(len(decoded))
        assert counts[0] == counts[1] < 2888


@dataclass(frozen=True)
class _Step:
    pc: int = 0
    seen: object = None  # the last value read


class _LateWriter(ProcessAutomaton):
    """Two local steps, then writes that bring in register values 1-4
    one at a time, a few steps apart, and reads that record what they
    see: the value domain grows, and the int layout's register fields
    widen (0 -> 1 -> 2 -> 3 bits), deep in the walk.

    ``raise_on = (hook, pc)`` makes that hook raise on local states at
    that pc, long after compile time: the walk first checks one at pc 6
    as its 13th state, at pc 9 as its 19th.
    """

    OPS = (
        NoOp(),
        NoOp(),
        WriteOp(0, 1),
        ReadOp(1),
        NoOp(),
        WriteOp(1, 2),
        ReadOp(0),
        WriteOp(0, 3),
        ReadOp(1),
        WriteOp(1, 4),
        ReadOp(0),
    )

    def __init__(self, raise_on=None):
        self.raise_on = raise_on

    def _hook(self, hook, state):
        if (hook, state.pc) == self.raise_on:
            raise RuntimeError(f"{hook} raised on {state}")

    def initial_state(self):
        return _Step()

    def is_halted(self, state):
        self._hook("is_halted", state)
        return state.pc == len(self.OPS)

    def next_op(self, state):
        self._hook("next_op", state)
        return self.OPS[state.pc]

    def apply(self, state, op, result):
        self._hook("apply", state)
        seen = result if isinstance(op, ReadOp) else state.seen
        return _Step(state.pc + 1, seen)

    def in_critical_section(self, state):
        self._hook("in_critical_section", state)
        return False


class _LateWriterAlgorithm(Algorithm):
    name = "late-writer"

    def __init__(self, raise_on=None):
        self.raise_on = raise_on

    def register_count(self):
        return 2

    def automaton_for(self, pid, input=None):
        return _LateWriter(self.raise_on)


def _late_writer_system(raise_on=None):
    return System(_LateWriterAlgorithm(raise_on), pids(2), record_trace=False)


def _outcome(build, invariant, backend, **budgets):
    """The fingerprint of a walk, or the exception it raised."""
    try:
        result = explore(build(), invariant, backend=backend, **budgets)
    except RuntimeError as error:
        return ("raised", str(error))
    return fingerprint(result), result.kernel


def _reached_local_states(system):
    """Most local states any slot reaches: a breadth-first walk of
    every reachable state fills exactly the entries a complete walk
    does."""
    program = compile_program(
        StepInstance.from_system(system), system.scheduler.capture_state()
    )
    stride = len(program.initial_packed)
    seen = {program.initial_packed}
    frontier = [program.initial_packed]
    while frontier:
        children, _edges = program.expand_batch(
            [index for state in frontier for index in state]
        )
        frontier = []
        for base in range(0, len(children), stride):
            child = tuple(children[base : base + stride])
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return max(len(states) for states in program.states)


def _frontier(graph):
    """The raw keys of a retained graph's never-expanded nodes."""
    return {
        graph.key(node) for node in range(len(graph)) if not graph.expanded(node)
    }


#: States in the complete late-writer walk.
LATE_WRITER_STATES = explore(_late_writer_system(), null_invariant).states_explored


class TestTablesGrowMidWalk:
    """The tables fill as the walk steps; every way they grow keeps the
    walk bit-identical to the serial one."""

    def test_widening_re_encodes_the_walk(self, monkeypatch):
        widenings = []
        fill_step = compiled_module._fill_step

        def spy(program, state, slot, si, value_mask, visited, stack, *nodes):
            out = fill_step(
                program, state, slot, si, value_mask, visited, stack, *nodes
            )
            if program.value_mask != value_mask:
                widenings.append(
                    (value_mask.bit_length(), len(visited), len(stack))
                )
            return out

        monkeypatch.setattr(compiled_module, "_fill_step", spy)
        serial = explore(_late_writer_system(), null_invariant)
        result = explore(
            _late_writer_system(), null_invariant, backend=CompiledBackend()
        )
        assert result.kernel == "compiled" and result.complete
        assert fingerprint(result) == fingerprint(serial)
        assert [bits for bits, _, _ in widenings] == [0, 1, 2]
        assert all(visited > 1 and stack > 0 for _, visited, stack in widenings)

    @pytest.mark.parametrize("retain_graph", [False, True])
    def test_every_budget_cut_around_the_widenings(self, retain_graph):
        # The depth-first walk widens the fields at its first writes of
        # 1, 2 and 4, with 6, 12 and 20 states visited; cut at every
        # budget up to the complete walk.  Retaining, the graph's node
        # list and dict are re-encoded with the stack.
        for max_states in range(1, LATE_WRITER_STATES + 1):
            serial, compiled = (
                explore(
                    _late_writer_system(), null_invariant, backend=backend,
                    max_states=max_states, retain_graph=retain_graph,
                )
                for backend in (SerialBackend(), CompiledBackend())
            )
            assert compiled.kernel == "compiled", max_states
            assert fingerprint(compiled) == fingerprint(serial), max_states
            if retain_graph:
                assert (
                    compiled.graph.to_bytes() == serial.graph.to_bytes()
                ), max_states
                assert _frontier(compiled.graph) == _frontier(serial.graph), (
                    max_states
                )

    def test_a_cap_crossed_mid_walk_falls_back(self):
        reached = _reached_local_states(mutex_system())
        serial = fingerprint(
            explore(mutex_system(), mutual_exclusion_invariant)
        )
        for cap, kernel in ((reached, "compiled"), (reached - 1, "interpreted")):
            result = explore(
                mutex_system(),
                mutual_exclusion_invariant,
                backend=CompiledBackend(max_local_states=cap),
            )
            assert result.kernel == kernel, cap
            assert fingerprint(result) == serial

    @pytest.mark.parametrize("hook", ["next_op", "apply", "is_halted"])
    def test_a_hook_raising_deep_in_the_walk(self, hook):
        def build():
            return _late_writer_system(raise_on=(hook, 9))

        serial = _outcome(build, null_invariant, SerialBackend())
        assert serial[0] == "raised"
        assert _outcome(build, null_invariant, CompiledBackend()) == serial

    @pytest.mark.parametrize("pc", [6, 9])
    def test_a_suspect_fact_raising_deep_in_the_walk(self, pc):
        def build():
            return _late_writer_system(raise_on=("in_critical_section", pc))

        serial = _outcome(build, mutual_exclusion_invariant, SerialBackend())
        assert serial[0] == "raised"
        assert (
            _outcome(build, mutual_exclusion_invariant, CompiledBackend())
            == serial
        )
        # Cut before the walk checks a state holding the raising local
        # state, though it may already have reached one: no failure.
        for max_states in range(1, LATE_WRITER_STATES + 1):
            serial = _outcome(
                build, mutual_exclusion_invariant, SerialBackend(),
                max_states=max_states,
            )
            if serial[0] == "raised":
                break
            assert _outcome(
                build, mutual_exclusion_invariant, CompiledBackend(),
                max_states=max_states,
            ) == (serial[0], "compiled"), max_states


@cache
def _orbit_keys(name):
    """(instance, initial, program, bytes tables, int weights) of a
    symmetric instance, compiled once and shared by the tests."""
    factory = ORBIT_INSTANCES[name]
    system = factory()
    instance = StepInstance.from_system(system)
    initial = system.scheduler.capture_state()
    program = compile_program(instance, initial)
    # Digest tables over the whole closure, as the quotient walk has them.
    program.close()
    tables = build_canonicalizer(system).packed_digest_tables(
        program.values, program.states, program.halted, program.crashed
    )
    return instance, initial, program, tables, tables.orbit_weights(program.m)


ORBIT_INSTANCES = {
    # Slot permutations only (identity naming fixes every register).
    "consensus-n3-equal": consensus_n3_system,
    # Ring naming: the swap also rotates the registers.
    "mutex-m4-ring": next(
        param.values[0]
        for param in SHIPPED_INSTANCES
        if param.id == "mutex-m4-ring"
    ),
}


def _compare(a, b):
    return (a > b) - (a < b)


class TestOrbitKeyOrder:
    """Integer orbit keys order exactly like the bytes keys they replace."""

    @pytest.mark.parametrize("name", sorted(ORBIT_INSTANCES))
    def test_group_is_nontrivial(self, name):
        _, _, program, tables, _ = _orbit_keys(name)
        assert tables.candidates
        moves_registers = any(
            cand.source_phys != tuple(range(program.m))
            for cand in tables.candidates
        )
        assert moves_registers == (name == "mutex-m4-ring")

    @pytest.mark.parametrize("name", sorted(ORBIT_INSTANCES))
    @settings(max_examples=80, deadline=None)
    @given(
        first=st.lists(st.integers(min_value=0, max_value=7), max_size=40),
        second=st.lists(st.integers(min_value=0, max_value=7), max_size=40),
    )
    def test_int_keys_order_like_bytes_keys(self, name, first, second):
        instance, initial, program, tables, weights = _orbit_keys(name)
        packed = [
            program.pack(_walk(instance, initial, choices))
            for choices in (first, second)
        ]
        (canon_a, raw_a), (canon_b, raw_b) = [
            tables.batch_keys(state, program.m)[0] for state in packed
        ]
        vector_a, vector_b = [weights.vector(state) for state in packed]
        assert _compare(min(vector_a), min(vector_b)) == _compare(
            canon_a, canon_b
        )
        assert _compare(vector_a[0], vector_b[0]) == _compare(raw_a, raw_b)


@cache
def _orbit_delta_rows(name):
    """The orbit-key delta rows of :func:`_orbit_keys`'s program."""
    _, _, program, _, weights = _orbit_keys(name)
    return program.orbit_delta_tables(weights.by_position)


def _check_orbit_deltas(name, packed):
    """Each enabled slot's int delta and orbit-key delta row entry, read
    at the same index, move the int state and the key vector to those of
    its ``step_packed`` child.  Returns the kinds of the steps checked."""
    _, _, program, _, weights = _orbit_keys(name)
    deltas, at = program.delta_tables()
    vdeltas = _orbit_delta_rows(name)
    state = program.encode(packed)
    vector = weights.vector(packed)
    kinds = set()
    for slot in range(len(program.slots)):
        si = packed[program.m + slot]
        if not program.live[slot][si]:
            continue
        index = (state >> at[slot][si]) & program.value_mask
        child = program.step_packed(packed, slot)
        assert state + deltas[slot][si][index] == program.encode(child)
        moved = [key + d for key, d in zip(vector, vdeltas[slot][si][index])]
        assert moved == weights.vector(child)
        kinds.add(program.kind[slot][si])
    return kinds


class TestOrbitDeltaRows:
    """The quotient walk's successor arithmetic matches the packed
    kernel and the from-scratch key vector."""

    @pytest.mark.parametrize("name", sorted(ORBIT_INSTANCES))
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=60))
    def test_delta_rows_step_like_the_kernel(self, name, choices):
        instance, initial, program, _, _ = _orbit_keys(name)
        state = initial
        for choice in choices:
            _check_orbit_deltas(name, program.pack(state))
            enabled = enabled_pids(instance, state)
            if not enabled:
                break
            state = step_value(instance, state, enabled[choice % len(enabled)])

    @pytest.mark.parametrize("name", sorted(ORBIT_INSTANCES))
    def test_reads_and_writes_are_covered(self, name):
        # Breadth first from the initial state: the random walks above
        # step writes too, and here they provably do.
        instance, initial, program, _, _ = _orbit_keys(name)
        seen = {initial}
        frontier = [initial]
        kinds = set()
        while frontier and len(seen) < 300:
            state = frontier.pop(0)
            kinds |= _check_orbit_deltas(name, program.pack(state))
            for pid in enabled_pids(instance, state):
                child = step_value(instance, state, pid)
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        assert {compiled_module.OP_READ, compiled_module.OP_WRITE} <= kinds

    def test_equal_rows_share_one_tuple(self):
        rows = _orbit_delta_rows("consensus-n3-equal")
        entries = [
            vd for slot in rows for row in slot for vd in row if vd is not None
        ]
        assert len({id(vd) for vd in entries}) == len(set(entries))


def _raising_consensus_n3(hook):
    """Three-process consensus whose first process's ``hook`` raises deep
    in the quotient walk: ``output`` on its decided state, ``next_op``
    and ``apply`` on its write to the last register.  Overridden on the
    automaton object, so the symmetry group (order 6) still applies."""
    system = consensus_n3_system()
    pid = pids(3)[0]
    automaton = system.scheduler.runtime(pid).automaton
    plain = getattr(automaton, hook)

    def raising(state, *args):
        if hook == "output":
            hit = state.pc == "decided"
        else:
            hit = state.pc == "write" and state.write_index == 4
        if hit:
            raise RuntimeError(f"{hook} raised on process {pid}: {state}")
        return plain(state, *args)

    setattr(automaton, hook, raising)
    return system


def _quotient_outcome(build, backend, telemetry=None, **budgets):
    """The fingerprint and kernel of a quotient walk, or the exception
    it raised."""
    system = build()
    try:
        result = explore(
            system,
            CONSENSUS.invariant,
            canonicalizer=build_canonicalizer(system),
            backend=backend,
            telemetry=telemetry,
            **budgets,
        )
    except RuntimeError as error:
        return ("raised", str(error))
    return fingerprint(result), result.kernel


class TestQuotientWalkHooks:
    """Hooks that raise deep in a three-process symmetric walk: the
    compiled quotient walk raises exactly where the serial one does."""

    @pytest.mark.parametrize("hook", ["output", "next_op", "apply"])
    def test_a_hook_raising_deep_in_the_walk(self, hook):
        build = partial(_raising_consensus_n3, hook)
        assert build_canonicalizer(build()).group_order == 6
        serial = _quotient_outcome(build, SerialBackend())
        assert serial[0] == "raised"
        assert _quotient_outcome(build, CompiledBackend()) == serial
        # The serial walk raises at its 195th-201st visited state; cut
        # before that, both walks end cleanly and alike.  An output
        # hook poisons the suspect's facts when the tables close, so
        # every state is decoded and checked from the start.
        for max_states in (1, 50, 120):
            serial = _quotient_outcome(
                build, SerialBackend(), max_states=max_states
            )
            assert serial[0] != "raised", max_states
            assert _quotient_outcome(
                build, CompiledBackend(), max_states=max_states
            ) == (serial[0], "compiled"), max_states

    def test_tables_growing_during_the_walk_fall_back(self, monkeypatch):
        # Closed tables cannot grow, so force it on the walk's one slow
        # path, a poisoned entry: its step interns a value that widens
        # the register fields.  The walk must stop before it encodes
        # anything in the new layout, and the interpreter takes over.
        def widening(program, packed, slot):
            program._intern(("fresh", len(program.values)))
            return packed

        build = partial(_raising_consensus_n3, "apply")
        serial = _quotient_outcome(build, SerialBackend())
        monkeypatch.setattr(
            compiled_module.CompiledProgram, "step_packed", widening
        )
        tel = Telemetry()
        assert _quotient_outcome(build, CompiledBackend(), telemetry=tel) == serial
        assert [
            fields["reason"]
            for _, name, fields in tel.events()
            if name == "explore.kernel_fallback"
        ] == ["the tables grew during the quotient walk"]


class TestKernelWiring:
    def test_explore_kernel_compiled(self):
        result = explore(
            mutex_system(), mutual_exclusion_invariant, kernel="compiled"
        )
        assert result.backend == "compiled"
        assert result.kernel == "compiled"

    def test_explore_kernel_interpreted_is_the_default(self):
        result = explore(mutex_system(), mutual_exclusion_invariant)
        assert result.backend == "serial"
        assert result.kernel == "interpreted"

    def test_explore_unknown_kernel(self):
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            explore(
                mutex_system(), mutual_exclusion_invariant, kernel="quantum"
            )

    def test_explore_backend_parallel_is_unknown(self):
        with pytest.raises(
            ConfigurationError, match="not 'parallel'; select the step kernel"
        ):
            explore(
                mutex_system(),
                mutual_exclusion_invariant,
                kernel="compiled",
                backend="parallel",
            )

    def test_overflow_falls_back_to_the_interpreter(self):
        # A one-state cap defeats table compilation; the backend must
        # run the serial walk wholesale and say so in the kernel field.
        serial = explore(
            mutex_system(), mutual_exclusion_invariant, backend=SerialBackend()
        )
        result = explore(
            mutex_system(),
            mutual_exclusion_invariant,
            backend=CompiledBackend(max_local_states=1),
        )
        assert result.backend == "compiled"
        assert result.kernel == "interpreted"
        assert fingerprint(result) == fingerprint(serial)

    @pytest.mark.parametrize(
        "backend, reason",
        [
            # Compiles (one local state per slot), overflows mid-walk.
            (
                CompiledBackend(max_local_states=1),
                r"slot \d local-state space exceeds 1 states",
            ),
            # Overflows while interning the initial register values.
            (
                CompiledBackend(max_domain=0),
                "register value domain exceeds 0 values",
            ),
        ],
        ids=["mid-walk", "compile-time"],
    )
    def test_fallback_names_its_reason(self, backend, reason):
        serial = explore(mutex_system(), mutual_exclusion_invariant)
        tel = Telemetry()
        result = explore(
            mutex_system(), mutual_exclusion_invariant, backend=backend,
            telemetry=tel,
        )
        assert result.kernel == "interpreted"
        assert fingerprint(result) == fingerprint(serial)
        fallbacks = [
            fields for _, name, fields in tel.events()
            if name == "explore.kernel_fallback"
        ]
        assert len(fallbacks) == 1
        assert re.fullmatch(reason, fallbacks[0]["reason"])


DOMAIN_CASES = [
    (spec, inst)
    for spec in problem_specs(include_mutants=True)
    if spec.value_domain is not None
    for inst in spec.instances_with_role("verify")
]


class TestDeclaredValueDomains:
    @pytest.mark.parametrize(
        "spec, inst",
        DOMAIN_CASES,
        ids=[inst.label for _, inst in DOMAIN_CASES],
    )
    def test_discovered_domain_is_within_the_declared_one(self, spec, inst):
        declared = set(spec.value_domain(inst.params_dict()))
        system = spec.system(inst)
        program = compile_program(
            StepInstance.from_system(system), system.scheduler.capture_state()
        )
        # A fresh program holds only the initial values; close it to
        # discover the whole domain.
        program.close()
        assert set(program.values) <= declared


class TestVerifyKernel:
    def test_verify_instance_kernel_compiled_matches_interpreted(self):
        from repro.problems import get_problem
        from repro.verify import verify_instance

        spec = get_problem("figure-1-mutex")
        inst = spec.instance("figure-1-mutex(m=3)")
        interpreted = verify_instance(spec, inst)
        compiled = verify_instance(
            spec, inst, request=RunRequest(kernel="compiled")
        )
        assert compiled.exploration.kernel == "compiled"
        assert fingerprint(compiled.exploration) == fingerprint(
            interpreted.exploration
        )
        assert (
            compiled.exploration.graph.to_bytes()
            == interpreted.exploration.graph.to_bytes()
        )
        assert [o.describe() for o in compiled.outcomes] == [
            o.describe() for o in interpreted.outcomes
        ]

    def test_cli_kernel_compiled(self, capsys):
        from repro.__main__ import cmd_verify

        code = cmd_verify(
            ["--instance", "figure-1-mutex(m=3)", "--kernel", "compiled"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[OK ]" in out
