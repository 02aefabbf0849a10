"""Schedule shrinking and the violation oracles, over a per-run step memo.

A fuzz hit arrives as a raw schedule (hundreds of steps of whatever the
strategy happened to do); what ships in a report must be the *minimal*
schedule that still exhibits the violation, because minimal schedules
are what humans read and what regression tests replay.  This module
holds both halves of that contract:

* the **step memo** (:class:`StepMemo`) — the pure kernel's transition
  function, memoised for one fuzz run: value states are interned as
  integer ids and each ``(state id, pid)`` step is computed by
  :func:`~repro.runtime.kernel.step_value` once.  ddmin replays
  near-identical schedules from the same few states over and over, so
  almost every step it asks for is already in the table;
* the **oracles** — walks over the memo that decide whether a schedule
  (or a prefix+cycle lasso) exhibits a safety violation, a fair
  non-progress cycle (deadlock-freedom, the conditions of
  ``repro.verify``'s lasso validator) or a solo livelock
  (obstruction-freedom).  The engine uses them to confirm candidate
  hits; the shrinker uses them as the predicate to preserve;
* the **shrinkers** — ddmin-style chunk removal over schedules
  (:func:`shrink_safety`) and a cycle-aware reduction for lassos
  (:func:`shrink_lasso`: collapse the cycle to its minimal repeating
  unit, drop cycle chunks, then ddmin the prefix while re-checking the
  cycle from wherever the shorter prefix lands).

Everything here is deterministic — no RNG, no wall clock — so shrunk
schedules are reproducible artefacts of the (seed, episode) that found
them.  :func:`replay_values` is the memo-free reference walk.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.errors import FuzzError, ProtocolError, SchedulingError
from repro.runtime.kernel import (
    GlobalState,
    StateView,
    StepInstance,
    enabled_pids,
    step_value,
)
from repro.types import ProcessId

__all__ = [
    "StepMemo",
    "replay_values",
    "safety_message",
    "cycle_is_df_violation",
    "cycle_is_of_violation",
    "LASSO_ORACLES",
    "shrink_safety",
    "shrink_lasso",
]

Schedule = Tuple[ProcessId, ...]

#: The successor id of a step the kernel rejected (halted, crashed or
#: unknown process, out-of-range register).
REJECTED = -1


# -- the step memo -----------------------------------------------------

class StepMemo:
    """The kernel's transition function over interned states, for one run.

    ``states[i]`` is the value state with id ``i``; :meth:`step` looks a
    ``(state id, pid)`` step up in the table and calls
    :func:`~repro.runtime.kernel.step_value` only on a miss.  A step the
    kernel rejects with ``SchedulingError``/``ProtocolError`` is stored
    as :data:`REJECTED` with its error's class and arguments
    (:meth:`solo_run` raises it again); any other exception propagates
    and is not stored.  The automata are pure, so a memoised step equals
    a recomputed one.

    ``in_cs``/``phase`` memoise the automata's ``in_critical_section``/
    ``phase`` hooks per ``(state id, pid)``; ``supported`` reports
    whether every automaton exposes both (mutex-style automata only).

    A memo grows with every state its caller touches and is never
    evicted, so the engine builds one per run and drops it with the run.
    """

    def __init__(self, instance: StepInstance) -> None:
        self.instance = instance
        self.supported = all(
            hasattr(a, "in_critical_section") and hasattr(a, "phase")
            for a in instance.automata.values()
        )
        self.states: List[GlobalState] = []
        self._ids: Dict[GlobalState, int] = {}
        self._table: Dict[Tuple[int, ProcessId], int] = {}
        self._rejections: Dict[
            Tuple[int, ProcessId], Tuple[Type[Exception], Tuple[Any, ...]]
        ] = {}
        self._in_cs: Dict[Tuple[int, ProcessId], bool] = {}
        self._phase: Dict[Tuple[int, ProcessId], str] = {}

    def intern(self, state: GlobalState) -> int:
        """The id of ``state``, assigning the next one if it is new."""
        sid = self._ids.get(state)
        if sid is None:
            sid = self._ids[state] = len(self.states)
            self.states.append(state)
        return sid

    def step(self, sid: int, pid: ProcessId) -> int:
        """The id of ``pid``'s successor of state ``sid``, or
        :data:`REJECTED`."""
        successor = self._table.get((sid, pid))
        if successor is None:
            successor = self._miss(sid, pid)
        return successor

    def _miss(self, sid: int, pid: ProcessId) -> int:
        try:
            state = step_value(self.instance, self.states[sid], pid)
        except (SchedulingError, ProtocolError) as error:
            # Not the error itself: its traceback would pin every frame
            # above the step for as long as the memo lives.
            self._rejections[(sid, pid)] = (type(error), error.args)
            successor = REJECTED
        else:
            successor = self.intern(state)
        self._table[(sid, pid)] = successor
        return successor

    def replay(self, sid: int, schedule: Sequence[ProcessId]) -> Optional[int]:
        """Walk ``schedule`` from ``sid``; ``None`` if a step is rejected
        (the memoised :func:`replay_values`)."""
        table = self._table
        for pid in schedule:  # :meth:`step`, inlined: ddmin's hot loop
            successor = table.get((sid, pid))
            if successor is None:
                successor = self._miss(sid, pid)
            if successor == REJECTED:
                return None
            sid = successor
        return sid

    def solo_run(
        self, sid: int, pid: ProcessId, max_steps: int
    ) -> Tuple[int, int, bool]:
        """:func:`~repro.runtime.kernel.solo_run_value` over ids: run
        ``pid`` alone for at most ``max_steps``, returning
        ``(final id, steps taken, settled)``.  A rejected step raises
        the kernel's error, as the plain solo run does."""
        slot = self.instance.slot_of[pid]
        for steps in range(max_steps):
            if self._settled(sid, slot):
                return sid, steps, True
            successor = self.step(sid, pid)
            if successor == REJECTED:
                error_type, args = self._rejections[(sid, pid)]
                raise error_type(*args)
            sid = successor
        return sid, max_steps, self._settled(sid, slot)

    def _settled(self, sid: int, slot: int) -> bool:
        _, _, halted, crashed = self.states[sid][1][slot]
        return halted or crashed

    def live_pids(self, sid: int) -> Tuple[ProcessId, ...]:
        """Processes neither halted nor crashed at ``sid``, in scheduler
        order."""
        return enabled_pids(self.instance, self.states[sid])

    def in_cs(self, sid: int, pid: ProcessId) -> bool:
        """Whether ``pid`` is in its critical section at ``sid``."""
        flag = self._in_cs.get((sid, pid))
        if flag is None:
            local = self.instance.slot_entry(self.states[sid], pid)[1]
            flag = self.instance.automata[pid].in_critical_section(local)
            self._in_cs[(sid, pid)] = flag
        return flag

    def phase(self, sid: int, pid: ProcessId) -> str:
        """``pid``'s section (entry/critical/exit/remainder) at ``sid``."""
        name = self._phase.get((sid, pid))
        if name is None:
            local = self.instance.slot_entry(self.states[sid], pid)[1]
            name = self.instance.automata[pid].phase(local)
            self._phase[(sid, pid)] = name
        return name


# -- oracles -----------------------------------------------------------

def replay_values(
    instance: StepInstance,
    initial: GlobalState,
    schedule: Sequence[ProcessId],
) -> Optional[GlobalState]:
    """Walk ``schedule`` through the pure kernel; ``None`` if infeasible
    (a step targets a halted/crashed process or is otherwise rejected —
    the state shrinking has to avoid creating).  The memo-free reference
    for :meth:`StepMemo.replay`."""
    state = initial
    for pid in schedule:
        try:
            state = step_value(instance, state, pid)
        except (SchedulingError, ProtocolError):
            return None
    return state


def cycle_is_df_violation(
    memo: StepMemo, entry: int, cycle: Sequence[ProcessId]
) -> bool:
    """Whether ``cycle`` from state id ``entry`` is a fair non-progress
    cycle.

    The exact conditions ``repro.verify``'s lasso validator re-checks:
    the cycle closes back to ``entry``; every process live at ``entry``
    steps in it (fairness); no step is a critical-section *entry*
    (non-progress); and some process live at ``entry`` is in its entry
    section there (someone is actually trying).  Sound: on a
    deadlock-free instance no cycle can satisfy all four, so the fuzzer
    cannot report a false positive.
    """
    if not cycle or not memo.supported:
        return False
    live = memo.live_pids(entry)
    if not live or not set(live) <= set(cycle):
        return False
    if not any(memo.phase(entry, pid) == "entry" for pid in live):
        return False
    step, in_cs = memo.step, memo.in_cs
    sid = entry
    for pid in cycle:
        successor = step(sid, pid)
        if successor == REJECTED:
            return False
        if not in_cs(sid, pid) and in_cs(successor, pid):
            return False  # progress edge: someone got in
        sid = successor
    return sid == entry


def cycle_is_of_violation(
    memo: StepMemo, entry: int, cycle: Sequence[ProcessId]
) -> bool:
    """Whether ``cycle`` is a solo livelock (obstruction-freedom hit):
    a single live process runs the whole cycle alone and returns to
    state id ``entry`` without settling."""
    if not cycle or len(set(cycle)) != 1:
        return False
    pid = cycle[0]
    if pid not in memo.live_pids(entry):
        return False
    final, steps, settled = memo.solo_run(entry, pid, len(cycle))
    return not settled and steps == len(cycle) and final == entry


#: Each lasso violation kind and the oracle that decides it.
LASSO_ORACLES: Dict[str, Callable[[StepMemo, int, Sequence[ProcessId]], bool]] = {
    "deadlock-freedom": cycle_is_df_violation,
    "obstruction-freedom": cycle_is_of_violation,
}


def safety_message(
    memo: StepMemo,
    initial: int,
    schedule: Sequence[ProcessId],
    invariant: Callable[..., Optional[str]],
) -> Optional[str]:
    """The invariant's violation message at the end of ``schedule`` from
    state id ``initial`` (``None`` when the schedule is infeasible or the
    final state is clean)."""
    final = memo.replay(initial, schedule)
    if final is None:
        return None
    return invariant(StateView(memo.instance, memo.states[final]))


# -- ddmin -------------------------------------------------------------

def _ddmin(
    sequence: Schedule, predicate: Callable[[Schedule], bool]
) -> Schedule:
    """Classic delta-debugging minimisation: greedily drop chunks of
    halving granularity while ``predicate`` stays true.  ``predicate``
    must already hold for ``sequence``."""
    granularity = 2
    while len(sequence) >= 2:
        size = max(1, len(sequence) // granularity)
        reduced = False
        start = 0
        while start < len(sequence):
            candidate = sequence[:start] + sequence[start + size:]
            if candidate != sequence and predicate(candidate):
                sequence = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
            start += size
        if not reduced:
            if size <= 1:
                break
            granularity = min(len(sequence), granularity * 2)
    return sequence


# -- the shrinkers -----------------------------------------------------

def shrink_safety(
    memo: StepMemo,
    initial: GlobalState,
    schedule: Sequence[ProcessId],
    invariant: Callable[..., Optional[str]],
) -> Schedule:
    """A minimal feasible schedule whose final state still violates
    ``invariant`` (any violation message counts — shrinking may land on
    a different, smaller witness of the same property).

    Raises :class:`~repro.errors.FuzzError` when ``schedule`` itself is
    infeasible or ends in a clean state: there is nothing to shrink.
    """
    start = memo.intern(initial)

    def still_violates(candidate: Schedule) -> bool:
        return safety_message(memo, start, candidate, invariant) is not None

    schedule = tuple(schedule)
    if not still_violates(schedule):
        raise FuzzError(
            "safety witness to shrink is infeasible or ends in a clean state"
        )
    return _ddmin(schedule, still_violates)


def _minimal_repeating_unit(
    cycle: Schedule, valid: Callable[[Schedule], bool]
) -> Schedule:
    """The shortest prefix ``u`` with ``cycle == u * k`` that is itself
    a valid cycle (lockstep livelocks are long powers of one round)."""
    length = len(cycle)
    for unit_len in range(1, length):
        if length % unit_len:
            continue
        unit = cycle[:unit_len]
        if unit * (length // unit_len) == cycle and valid(unit):
            return unit
    return cycle


def shrink_lasso(
    memo: StepMemo,
    initial: GlobalState,
    prefix: Sequence[ProcessId],
    cycle: Sequence[ProcessId],
    kind: str,
) -> Tuple[Schedule, Schedule]:
    """Minimise a liveness lasso, preserving its violation ``kind``
    (``"deadlock-freedom"`` or ``"obstruction-freedom"``).

    Cycle first (entry state fixed): collapse to the minimal repeating
    unit, then ddmin chunks out of it.  Then the prefix: ddmin with the
    predicate "still feasible *and* the cycle still violates from the
    state this prefix reaches" — a shorter prefix may legitimately land
    on a different entry state of the same recurrent class.

    Raises :class:`~repro.errors.FuzzError` for an unknown ``kind``, an
    infeasible ``prefix``, or a ``cycle`` that does not exhibit ``kind``
    from the state ``prefix`` reaches.
    """
    oracle = LASSO_ORACLES.get(kind)
    if oracle is None:
        raise FuzzError(
            f"unknown lasso kind {kind!r}; expected one of {sorted(LASSO_ORACLES)}"
        )
    prefix = tuple(prefix)
    cycle = tuple(cycle)
    start = memo.intern(initial)

    entry = memo.replay(start, prefix)
    if entry is None:
        raise FuzzError("lasso prefix to shrink is infeasible")
    if not oracle(memo, entry, cycle):
        raise FuzzError(f"lasso cycle to shrink is not a {kind} violation")

    def cycle_valid(unit: Schedule) -> bool:
        return oracle(memo, entry, unit)

    cycle = _minimal_repeating_unit(cycle, cycle_valid)
    cycle = _ddmin(cycle, cycle_valid)

    def prefix_ok(candidate: Schedule) -> bool:
        reached = memo.replay(start, candidate)
        return reached is not None and oracle(memo, reached, cycle)

    prefix = _ddmin(prefix, prefix_ok) if prefix else prefix
    # ddmin bottoms out at one element; a zero-length prefix is common
    # (livelocks reachable from the initial state), so try it explicitly.
    if prefix and prefix_ok(()):
        prefix = ()
    return prefix, cycle
