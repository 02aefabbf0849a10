"""Differential + property validation of the table-compiled step kernel.

The compiled backend's contract is *bit-identity*: on every instance it
can compile it must reproduce the serial backend's results exactly —
verdict, counters, violation text and schedule, retained graph bytes —
at a fraction of the wall time; on everything else it must fall back to
the interpreter wholesale (``kernel == "interpreted"``) rather than
degrade semantics.
"""

from dataclasses import dataclass
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mutex import AnonymousMutex
from repro.errors import ConfigurationError
from repro.problems import get_problem, instances_with_role, problem_specs
from repro.request import RunRequest
from repro.runtime.automaton import Algorithm, ProcessAutomaton
from repro.runtime.backends import SerialBackend, resolve_backend
from repro.runtime.canonical import TrivialCanonicalizer, build_canonicalizer
from repro.runtime.compiled import CompiledBackend, compile_program
from repro.runtime.exploration import explore, mutual_exclusion_invariant
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
#: 75).  Its max_states cuts trip in both unrolled per-pid branches of
#: the two-process walk, the first pid's and the second's.
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


class TestRetainedGraph:
    @pytest.mark.parametrize(
        "spec, inst",
        VERIFY_INSTANCES,
        ids=[inst.label for _, inst in VERIFY_INSTANCES],
    )
    def test_graph_bytes_identical(self, spec, inst):
        invariant = spec.invariant or null_invariant

        def run(backend):
            system = spec.system(inst)
            budget = inst.verify_max_states
            return explore(
                system,
                invariant,
                max_states=budget,
                max_depth=budget,
                backend=backend,
                retain_graph=True,
            )

        serial = run(SerialBackend())
        compiled = run(CompiledBackend())
        assert fingerprint(serial) == fingerprint(compiled)
        assert serial.graph is not None and compiled.graph is not None
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


def _check_int_state(program, deltas, at, packed):
    """The int form of ``packed`` round-trips, and each enabled slot's
    delta-table successor is the int form of its ``step_packed`` child,
    with a zero delta exactly on the inert step."""
    state = program.encode(packed)
    assert program.decode(state) == packed
    live = program.live_tables()
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
        program = compile_program(instance, initial)
        assert program.values == [0]
        assert [len(states) for states in program.states] == [8, 2]
        # Two zero-width register fields, then 3 + 1 slot bits.
        assert program.field_mask == (0, 0, 7, 1)
        assert program.field_shift == (0, 0, 0, 3)
        assert program.state_bits == 4
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
        assert max(ints) == 2**program.state_bits - 1

    def test_field_width_boundaries_walk_is_bit_identical(self):
        serial, compiled = (
            explore(_boundary_system(), null_invariant, backend=backend)
            for backend in (SerialBackend(), CompiledBackend())
        )
        assert compiled.kernel == "compiled"
        assert serial.complete and serial.states_explored == 16
        assert fingerprint(serial) == fingerprint(compiled)


@cache
def _orbit_keys(name):
    """(instance, initial, program, bytes tables, int weights) of a
    symmetric instance, compiled once and shared by the tests."""
    factory = ORBIT_INSTANCES[name]
    system = factory()
    instance = StepInstance.from_system(system)
    initial = system.scheduler.capture_state()
    program = compile_program(instance, initial)
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


class TestKernelWiring:
    def test_resolve_backend_compiled(self):
        assert isinstance(resolve_backend("compiled"), CompiledBackend)

    def test_resolve_backend_unknown(self):
        with pytest.raises(
            ConfigurationError, match="unknown exploration backend"
        ):
            resolve_backend("quantum")

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

    def test_explore_kernel_compiled_rejects_parallel(self):
        with pytest.raises(ConfigurationError, match="drop-in replacement"):
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

    def test_cli_kernel_compiled_rejects_parallel_backend(self, capsys):
        from repro.__main__ import cmd_verify

        with pytest.raises(SystemExit):
            cmd_verify(
                [
                    "--instance",
                    "figure-1-mutex(m=3)",
                    "--kernel",
                    "compiled",
                    "--backend",
                    "parallel",
                ]
            )
