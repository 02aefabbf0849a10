"""The value-state transition kernel: pure steps over immutable states.

The paper's §6.1 defines a global state as "the values of the (local and
shared) registers and the values of the location counters" — a *value*,
not a machine.  The seed runtime nevertheless executed transitions by
mutating one shared :class:`~repro.runtime.scheduler.Scheduler`
(restore → step → capture), which welds every consumer to a single
mutable object and a single core.  This module is the refactor's pivot:
the transition relation as a pure function over the
:data:`GlobalState` value tuple,

    ``step_state(instance, global_state, pid) -> (global_state', meta)``

with no side effects and no shared scheduler.  On top of it:

* :class:`StepInstance` — the immutable description of one algorithm
  instance (automata, register permutations, inputs) that a walk needs
  to run transitions without a live system;
* :class:`StateView` — a read-only, ``System``-shaped façade over a
  value state, so the stock invariants (and any duck-typed custom
  invariant reading ``system.scheduler.*``) evaluate on values without a
  live scheduler;
* :func:`enabled_pids` / :func:`all_settled` — scheduling predicates as
  pure functions of the state value;
* :func:`execute_via_view` — the one shared transition core the stateful
  :class:`~repro.runtime.scheduler.Scheduler` now delegates to, keeping
  the two execution paths (live runs with traces/audits, value-state
  exploration) semantically identical by construction.

The exploration backends (:mod:`repro.runtime.backends`) are built
entirely on this API: capture/restore becomes cheap value passing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from repro.errors import ProtocolError, SchedulingError
from repro.runtime.automaton import LocalState, ProcessAutomaton
from repro.runtime.ops import Operation, ReadOp, WriteOp
from repro.types import ProcessId

#: A captured global state: (register values, ((pid, local state, halted,
#: crashed), ...) sorted by pid).  §6.1: "a (global) state ... is
#: completely described by the values of the (local and shared) registers
#: and the values of the location counters" — local dataclasses carry
#: both locals and pc.  This is a plain immutable value: hashable, and
#: shared freely between schedulers, backends and the fuzzer's step
#: memo.
GlobalState = Tuple[
    Tuple[Any, ...], Tuple[Tuple[ProcessId, LocalState, bool, bool], ...]
]


@dataclass(frozen=True)
class StepMeta:
    """What happened in one pure step (the value-state analogue of an
    :class:`~repro.runtime.events.Event`, minus the sequence number —
    value states carry no clock)."""

    pid: ProcessId
    op: Operation
    physical_index: Optional[int]
    result: Any
    halted: bool


def execute_via_view(
    automaton: ProcessAutomaton, state: LocalState, view: Any
) -> Tuple[Operation, Optional[int], Any, LocalState, bool]:
    """One transition through a live :class:`~repro.memory.anonymous.MemoryView`.

    The stateful twin of :func:`step_state`: identical decision logic,
    but the memory access goes through the process's view so that lock
    guarding and the :class:`~repro.memory.anonymous.MemoryAudit`
    announce/observe handshake keep working.  This is the core the
    :class:`~repro.runtime.scheduler.Scheduler` façade executes.

    Returns ``(op, physical_index, result, new_state, halted)``.
    """
    op = automaton.next_op(state)
    physical_index: Optional[int] = None
    result: Any = None
    if isinstance(op, ReadOp):
        physical_index = view.physical_index_of(op.index)
        result = view.read(op.index)
    elif isinstance(op, WriteOp):
        physical_index = view.physical_index_of(op.index)
        view.write(op.index, op.value)
    new_state = automaton.apply(state, op, result)
    return op, physical_index, result, new_state, automaton.is_halted(new_state)


class StepInstance:
    """The pure context of one algorithm instance.

    Everything :func:`step_state` needs that is *not* part of the global
    state value: the per-process automata (pure functions), each
    process's private-to-physical register permutation (the naming
    assignment, fixed for the run), and the inputs (for validity-style
    invariants).  A ``StepInstance`` is immutable after construction and
    contains no locks, views or live memory.

    ``pid_order`` preserves the scheduler's iteration order (system
    construction order), so :func:`enabled_pids` enumerates processes
    exactly as ``Scheduler.enabled_pids`` does — backends that replace
    the mutate-and-rewind walk stay schedule-for-schedule identical.
    """

    def __init__(
        self,
        automata: Dict[ProcessId, ProcessAutomaton],
        permutations: Dict[ProcessId, Tuple[int, ...]],
        inputs: Optional[Dict[ProcessId, Any]] = None,
        pid_order: Optional[Sequence[ProcessId]] = None,
    ) -> None:
        self.automata: Dict[ProcessId, ProcessAutomaton] = dict(automata)
        self.permutations: Dict[ProcessId, Tuple[int, ...]] = {
            pid: tuple(perm) for pid, perm in permutations.items()
        }
        self.inputs: Dict[ProcessId, Any] = dict(inputs or {})
        self.pid_order: Tuple[ProcessId, ...] = tuple(
            pid_order if pid_order is not None else automata
        )
        #: pid -> index into the (pid-sorted) locals part of a GlobalState.
        self.slot_of: Dict[ProcessId, int] = {
            pid: slot for slot, pid in enumerate(sorted(self.automata))
        }

    @classmethod
    def from_system(cls, system: Any) -> StepInstance:
        """Extract the pure context from a configured ``System``."""
        scheduler = system.scheduler
        return cls(
            automata={
                pid: scheduler.runtime(pid).automaton for pid in scheduler.pids
            },
            permutations=system.memory.permutation_table(),
            inputs=dict(system.inputs),
            pid_order=scheduler.pids,
        )

    def slot_entry(
        self, global_state: GlobalState, pid: ProcessId
    ) -> Tuple[ProcessId, LocalState, bool, bool]:
        """The ``(pid, state, halted, crashed)`` entry for ``pid``."""
        return global_state[1][self.slot_of[pid]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StepInstance(pids={list(self.pid_order)})"


def step_state(
    instance: StepInstance, global_state: GlobalState, pid: ProcessId
) -> Tuple[GlobalState, StepMeta]:
    """Perform ``pid``'s single pending operation, purely.

    Returns the successor global state and a :class:`StepMeta` record.
    ``global_state`` is never modified — both tuples are values; callers
    keep as many (parent, child) pairs alive as they like, which is what
    makes breadth-first frontiers and cross-process fan-out cheap.

    Raises :class:`~repro.errors.SchedulingError` for crashed/halted
    processes and :class:`~repro.errors.ProtocolError` for out-of-range
    register numbers — the same contract as ``Scheduler.step``.
    """
    new_state, meta = _step(instance, global_state, pid)
    return new_state, meta


def step_value(
    instance: StepInstance, global_state: GlobalState, pid: ProcessId
) -> GlobalState:
    """:func:`step_state` without the meta record (explorer hot path)."""
    return _step(instance, global_state, pid, want_meta=False)[0]


def _step(
    instance: StepInstance,
    global_state: GlobalState,
    pid: ProcessId,
    want_meta: bool = True,
) -> Tuple[GlobalState, Optional[StepMeta]]:
    registers, locals_part = global_state
    try:
        slot = instance.slot_of[pid]
    except KeyError:
        raise SchedulingError(f"unknown process id {pid!r}") from None
    entry_pid, state, halted, crashed = locals_part[slot]
    if crashed:
        raise SchedulingError(f"process {pid} has crashed and cannot step")
    if halted:
        raise SchedulingError(f"process {pid} has halted and cannot step")

    automaton = instance.automata[pid]
    op = automaton.next_op(state)
    physical: Optional[int] = None
    result: Any = None
    if isinstance(op, ReadOp):
        physical = _physical_index(instance, pid, op.index)
        result = registers[physical]
    elif isinstance(op, WriteOp):
        physical = _physical_index(instance, pid, op.index)
        registers = (
            registers[:physical] + (op.value,) + registers[physical + 1 :]
        )
    new_local = automaton.apply(state, op, result)
    new_halted = automaton.is_halted(new_local)
    locals_part = (
        locals_part[:slot]
        + ((entry_pid, new_local, new_halted, crashed),)
        + locals_part[slot + 1 :]
    )
    meta = (
        StepMeta(pid, op, physical, result, new_halted) if want_meta else None
    )
    return (registers, locals_part), meta


def _physical_index(
    instance: StepInstance, pid: ProcessId, view_index: int
) -> int:
    perm = instance.permutations[pid]
    if not 0 <= view_index < len(perm):
        raise ProtocolError(
            f"process {pid}: register index {view_index} out of "
            f"range 0..{len(perm) - 1}"
        )
    return perm[view_index]


# ---------------------------------------------------------------------------
# Scheduling predicates over value states
# ---------------------------------------------------------------------------


def solo_run_value(
    instance: StepInstance,
    global_state: GlobalState,
    pid: ProcessId,
    max_steps: int,
) -> Tuple[GlobalState, int, bool]:
    """Run ``pid`` alone from ``global_state`` for at most ``max_steps``.

    The pure-value form of the obstruction-freedom experiment: repeated
    :func:`step_value` applications of a single process with every other
    process suspended.  Returns ``(final_state, steps_taken, settled)``
    where ``settled`` is True when the process halted (or was already
    halted/crashed) before the budget ran out.  The verifier uses this
    to confirm solo-livelock cycles found on the retained state graph by
    actually replaying them through the kernel.
    """
    state = global_state
    slot = instance.slot_of[pid]
    for steps in range(max_steps):
        _, _, halted, crashed = state[1][slot]
        if halted or crashed:
            return state, steps, True
        state = step_value(instance, state, pid)
    _, _, halted, crashed = state[1][slot]
    return state, max_steps, halted or crashed


def enabled_pids(
    instance: StepInstance, global_state: GlobalState
) -> Tuple[ProcessId, ...]:
    """Processes that can take a step, in the instance's scheduler order."""
    locals_part = global_state[1]
    slot_of = instance.slot_of
    return tuple(
        pid
        for pid in instance.pid_order
        if not (locals_part[slot_of[pid]][2] or locals_part[slot_of[pid]][3])
    )


def all_settled(global_state: GlobalState) -> bool:
    """True when every process has halted or crashed.

    The value-state analogue of ``Scheduler.all_settled``.  Under the
    current process model (a process is enabled iff neither halted nor
    crashed) a state is settled exactly when it is terminal; the
    explorers nevertheless count terminal-but-unsettled states as
    "stuck" defensively, so a future process model where a process can
    be disabled without settling (blocked, waiting) is flagged instead
    of silently under-explored.
    """
    return all(halted or crashed for _, _, halted, crashed in global_state[1])


# ---------------------------------------------------------------------------
# Invariant evaluation over value states
# ---------------------------------------------------------------------------


class ProcessStateView:
    """Read-only stand-in for a ``ProcessRuntime`` over one locals entry."""

    __slots__ = ("automaton", "state", "halted", "crashed")

    def __init__(
        self,
        automaton: ProcessAutomaton,
        state: LocalState,
        halted: bool,
        crashed: bool,
    ) -> None:
        self.automaton = automaton
        self.state = state
        self.halted = halted
        self.crashed = crashed

    @property
    def enabled(self) -> bool:
        """Whether the process can take a step."""
        return not self.halted and not self.crashed


class StateView:
    """A ``System``-shaped read surface over a value :data:`GlobalState`.

    Invariants were historically typed against the live ``System`` and
    read ``system.scheduler.runtimes()`` / ``.outputs()`` /
    ``system.inputs``.  A ``StateView`` supports exactly that duck-typed
    surface — including ``view.scheduler is view`` so both spellings
    work — without any scheduler, which lets backends check invariants
    on value states directly.

    The surface is read-only: there is no ``step``, no ``run``, no
    ``crash``.  Invariants that mutate the system were never sound under
    exploration and are not supported.
    """

    def __init__(self, instance: StepInstance, global_state: GlobalState) -> None:
        self._instance = instance
        self._state = global_state

    # ``invariant(view)`` and ``invariant(system)`` must both work on the
    # same code path, so the view answers for its own scheduler.
    @property
    def scheduler(self) -> StateView:
        return self

    @property
    def inputs(self) -> Dict[ProcessId, Any]:
        return self._instance.inputs

    @property
    def global_state(self) -> GlobalState:
        """The underlying value state (observational)."""
        return self._state

    @property
    def pids(self) -> Tuple[ProcessId, ...]:
        return self._instance.pid_order

    def runtime(self, pid: ProcessId) -> ProcessStateView:
        try:
            slot = self._instance.slot_of[pid]
        except KeyError:
            raise SchedulingError(f"unknown process id {pid!r}") from None
        _, state, halted, crashed = self._state[1][slot]
        return ProcessStateView(
            self._instance.automata[pid], state, halted, crashed
        )

    def runtimes(self) -> Iterator[Tuple[ProcessId, ProcessStateView]]:
        """All ``(pid, runtime-view)`` pairs in ascending pid order."""
        automata = self._instance.automata
        for pid, state, halted, crashed in self._state[1]:
            yield pid, ProcessStateView(automata[pid], state, halted, crashed)

    def enabled_pids(self) -> Tuple[ProcessId, ...]:
        return enabled_pids(self._instance, self._state)

    def all_settled(self) -> bool:
        return all_settled(self._state)

    def all_halted(self) -> bool:
        return not self.enabled_pids()

    def output_of(self, pid: ProcessId) -> Any:
        view = self.runtime(pid)
        if not view.halted:
            raise SchedulingError(f"process {pid} has not halted")
        return view.automaton.output(view.state)

    def outputs(self) -> Dict[ProcessId, Any]:
        automata = self._instance.automata
        return {
            pid: automata[pid].output(state)
            for pid, state, halted, _ in self._state[1]
            if halted
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateView(pids={list(self.pids)})"
