"""Unit tests for the pluggable exploration backends.

:class:`SerialBackend` is the reference semantics (the seed DFS over
value states; its bit-parity with the historical explorer is pinned by
``test_exploration_differential.py``, which now runs through it).  The
tests here pin how ``explore()`` picks between it and
:class:`~repro.runtime.compiled.CompiledBackend`, and run both on the
budget-truncation accounting, the inert self-loop acceleration's
livelock break and the untouched-system contract.
"""

import pytest

from repro.core.mutex import AnonymousMutex
from repro.errors import ConfigurationError
from repro.runtime.adversary import RoundRobinAdversary
from repro.runtime.automaton import Algorithm, ProcessAutomaton
from repro.runtime.backends import SerialBackend
from repro.runtime.canonical import build_canonicalizer
from repro.runtime.compiled import CompiledBackend
from repro.runtime.exploration import (
    ExplorationResult,
    explore,
    mutual_exclusion_invariant,
)
from repro.runtime.ops import ReadOp
from repro.runtime.system import System

from tests.conftest import pids
from tests.runtime.test_exploration_differential import null_invariant


def mutex_system(m=3, record_trace=False):
    return System(AnonymousMutex(m=m, cs_visits=1), pids(2), record_trace=record_trace)


INTERPRETED = ("serial", "interpreted")
COMPILED = ("compiled", "compiled")

#: kernel= x backend= -> the (result.backend, result.kernel) that runs,
#: or None where explore() must raise a ConfigurationError.
SELECTOR_TABLE = [
    (None, None, INTERPRETED),
    (None, SerialBackend, INTERPRETED),
    (None, CompiledBackend, COMPILED),
    (None, "serial", None),
    ("interpreted", None, INTERPRETED),
    ("interpreted", SerialBackend, INTERPRETED),
    ("interpreted", CompiledBackend, None),
    ("interpreted", "serial", None),
    ("compiled", None, COMPILED),
    ("compiled", SerialBackend, None),
    ("compiled", CompiledBackend, COMPILED),
    ("compiled", "serial", None),
]


def _backend_id(backend):
    if isinstance(backend, str):
        return repr(backend)
    return getattr(backend, "__name__", str(backend))


class TestEngineSelector:
    """``kernel=`` is the one engine selector; ``backend=`` only passes
    a configured instance of the engine it names."""

    @pytest.mark.parametrize(
        "kernel, backend, expected", SELECTOR_TABLE,
        ids=[
            f"{kernel}-{_backend_id(backend)}"
            for kernel, backend, _expected in SELECTOR_TABLE
        ],
    )
    def test_table(self, kernel, backend, expected):
        engine = backend() if isinstance(backend, type) else backend
        if expected is None:
            with pytest.raises(ConfigurationError, match="kernel="):
                explore(
                    mutex_system(), mutual_exclusion_invariant,
                    kernel=kernel, backend=engine,
                )
            return
        result = explore(
            mutex_system(), mutual_exclusion_invariant,
            kernel=kernel, backend=engine,
        )
        assert (result.backend, result.kernel) == expected
        assert result.complete and result.ok

    def test_explore_defaults_to_serial(self):
        result = explore(mutex_system(), mutual_exclusion_invariant)
        assert (result.backend, result.kernel) == INTERPRETED

    def test_a_fake_backend_runs_when_no_kernel_is_named(self):
        class Fake:
            name = "fake"

            def run(self, task, telemetry):
                return ExplorationResult(
                    complete=True, states_explored=1, events_executed=0,
                    max_depth_reached=0,
                )

        result = explore(
            mutex_system(), mutual_exclusion_invariant, backend=Fake()
        )
        assert (result.backend, result.states_explored) == ("fake", 1)
        with pytest.raises(ConfigurationError, match="kernel='compiled'"):
            explore(
                mutex_system(), mutual_exclusion_invariant,
                kernel="compiled", backend=Fake(),
            )


BACKENDS = [
    pytest.param(lambda: SerialBackend(), id="serial"),
    pytest.param(lambda: CompiledBackend(), id="compiled"),
]


class TestBudgetAccounting:
    @pytest.mark.parametrize("make_backend", BACKENDS)
    def test_max_depth_prunes_without_stopping(self, make_backend):
        result = explore(
            mutex_system(m=5),
            mutual_exclusion_invariant,
            max_depth=3,
            backend=make_backend(),
        )
        assert result.truncated_by == "max_depth"
        assert not result.complete
        assert result.ok
        assert result.max_depth_reached == 3
        assert result.states_explored > 1

    @pytest.mark.parametrize("make_backend", BACKENDS)
    def test_max_states_stops_immediately(self, make_backend):
        result = explore(
            mutex_system(m=5),
            mutual_exclusion_invariant,
            max_states=10,
            backend=make_backend(),
        )
        assert result.truncated_by == "max_states"
        assert not result.complete
        assert result.peak_visited <= 10

    @pytest.mark.parametrize("make_backend", BACKENDS)
    def test_crash_terminal_states_are_settled_not_stuck(self, make_backend):
        system = mutex_system()
        system.scheduler.crash(pids(2)[1])
        result = explore(
            system, mutual_exclusion_invariant, backend=make_backend()
        )
        assert result.complete and result.ok
        assert result.stuck_states == 0


# ---------------------------------------------------------------------------
# Inert self-loop acceleration
# ---------------------------------------------------------------------------


class _SpinState:
    """Hashable spin-local state (plain class to keep it minimal)."""

    __slots__ = ("counter",)

    def __init__(self, counter: int) -> None:
        self.counter = counter

    def __eq__(self, other) -> bool:
        return isinstance(other, _SpinState) and other.counter == self.counter

    def __hash__(self) -> int:
        return hash(("spin", self.counter))

    def __repr__(self) -> str:
        return f"_SpinState({self.counter})"


class _SpinAutomaton(ProcessAutomaton):
    """Reads register 0 forever; the local counter cycles mod ``period``.

    With ``period=1`` every step reproduces the *identical* global
    state; with a larger period the states differ but the footprint
    hook collapses the counter away, so the canonicalizer sees an inert
    self-loop whose local states cycle — exactly the shape the
    ``seen_locals`` livelock break exists for.
    """

    SYMMETRIC = True
    PC_LINES = {"spin": "synthetic — not from the paper"}

    def __init__(self, pid, period: int) -> None:
        self.pid = pid
        self.period = period

    def initial_state(self):
        return _SpinState(0)

    def next_op(self, state):
        return ReadOp(0)

    def apply(self, state, op, result):
        return _SpinState((state.counter + 1) % self.period)

    def is_halted(self, state):
        return False

    # Trusted hook bundle: the counter is dead state (never read, never
    # written to memory), so footprints may drop it.
    def symmetry_signature(self):
        return None

    def state_footprint(self, state):
        return "spinning"

    def rename_state_footprint(self, footprint, pids_renamed, values_renamed):
        return footprint

    def rename_register_value(self, value, pids_renamed, values_renamed):
        return value


class _SpinAlgorithm(Algorithm):
    name = "spin"

    def __init__(self, period: int) -> None:
        self.period = period

    def register_count(self) -> int:
        return 1

    def automaton_for(self, pid, input=None):
        return _SpinAutomaton(pid, self.period)


class TestInertSelfLoopAcceleration:
    @pytest.mark.parametrize("make_backend", BACKENDS)
    def test_identical_state_spin_terminates(self, make_backend):
        # period=1: the successor *is* the parent state.  The walk must
        # recognise the livelock and reach a fixpoint with one state.
        system = System(_SpinAlgorithm(period=1), pids(1), record_trace=False)
        result = explore(system, null_invariant, backend=make_backend())
        assert result.complete and result.ok
        assert result.states_explored == 1
        # First step plus one acceleration step before the repeated
        # local state breaks the loop.
        assert result.events_executed == 2

    @pytest.mark.parametrize("make_backend", BACKENDS)
    def test_footprint_collapsed_spin_terminates(self, make_backend):
        # period=3 under the footprint hook: raw keys repeat while the
        # local states cycle 1 → 2 → 0 → 1; only the seen_locals check
        # stops the acceleration loop.
        system = System(_SpinAlgorithm(period=3), pids(1), record_trace=False)
        canonicalizer = build_canonicalizer(system)
        assert canonicalizer.uses_footprints
        result = explore(
            system,
            null_invariant,
            canonicalizer=canonicalizer,
            backend=make_backend(),
        )
        assert result.complete and result.ok
        assert result.states_explored == 1
        # First step, then the cycle 2, 0, 1 — the last one repeats.
        assert result.events_executed == 4


# ---------------------------------------------------------------------------
# explore() must not touch the system (the historical record_trace bug)
# ---------------------------------------------------------------------------


class TestExploreLeavesTheSystemUntouched:
    @pytest.mark.parametrize("make_backend", BACKENDS)
    def test_record_trace_and_state_survive(self, make_backend):
        # The seed explorer force-flipped record_trace to False and
        # never restored it, silently breaking any later system.run()
        # the caller expected to be traced.
        system = mutex_system(record_trace=True)
        before = system.scheduler.capture_state()
        result = explore(
            system, mutual_exclusion_invariant, backend=make_backend()
        )
        assert result.complete and result.ok
        assert system.scheduler.record_trace is True
        assert len(system.scheduler.trace) == 0
        assert system.scheduler.steps_so_far == 0
        assert system.scheduler.capture_state() == before
        # ... so a subsequent live run still records its trace.
        trace = system.run(RoundRobinAdversary(), max_steps=500)
        assert len(trace) > 0


class TestStatesPerSecond:
    def base(self, **overrides):
        values = dict(
            complete=True,
            states_explored=100,
            events_executed=0,
            max_depth_reached=0,
        )
        values.update(overrides)
        return ExplorationResult(**values)

    def test_sub_timer_walks_have_no_rate(self):
        assert self.base(wall_seconds=0.0).states_per_second is None

    def test_positive_wall_time_gives_a_rate(self):
        assert self.base(wall_seconds=0.5).states_per_second == 200.0
