"""Schedule shrinking and the violation oracles, over a step memo.

A fuzz hit arrives as a raw schedule (hundreds of steps of whatever the
strategy happened to do); what ships in a report must be the *minimal*
schedule that still exhibits the violation, because minimal schedules
are what humans read and what regression tests replay.  This module
holds both halves of that contract:

* the **step memo** (:class:`StepMemo`) — the pure kernel's transition
  function, memoised for one instance: value states are interned as
  integer ids, and the table holds, by column, each id's successor per
  slot (computed by :func:`~repro.runtime.kernel.step_value` once) and
  the invariant's message, and each distinct locals part's scheduling
  context and critical-section mask.  The fuzz search walks these ids,
  and ddmin replays near-identical schedules from the same few states
  over and over, so almost every step either asks for is already in
  the table; a farm worker keeps one memo for all its cells of a
  target, so later cells find the earlier cells' states there too;
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
from repro.runtime.ops import ReadOp, WriteOp
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

#: A state's live pids and, for each, the physical register its pending
#: operation touches (``None`` for a local step): what the search builds
#: each :class:`~repro.fuzz.strategies.FuzzContext` from.  Equal contexts
#: are one object, shared by every state that has it, so readers must
#: not mutate it.
Context = Tuple[Tuple[ProcessId, ...], Dict[ProcessId, Optional[int]]]

#: A message not yet evaluated (``None`` is a clean state's).
_UNSET: Any = object()


# -- the step memo -----------------------------------------------------

class StepMemo:
    """The kernel's transition function over interned states, for one
    instance.

    ``states[i]`` is (a value equal to) the value state with id ``i``.
    Per state id, these are filled the first time they are asked for:

    * the successor id per slot (:meth:`step`), computed by
      :func:`~repro.runtime.kernel.step_value` on a miss.  A step the
      kernel rejects with ``SchedulingError``/``ProtocolError`` is stored
      as :data:`REJECTED` with its error's class and arguments
      (:meth:`advance` and :meth:`solo_run` raise it again); any other
      exception propagates and is not stored;
    * the message of ``invariant``, the memo's invariant
      (:meth:`message`).  An invariant that raises propagates and is not
      stored.

    Two fields depend on the locals part alone, so they are filled once
    per distinct locals part, for every state that shares it:

    * the :data:`Context` (:meth:`context`): the live pids and their
      pending physical registers.  A ``next_op`` that raises leaves the
      register ``None``; the step itself then raises;
    * the bit mask of the slots in their critical section
      (:meth:`cs_mask`).

    The automata are pure, so a memoised field equals a recomputed one,
    and a caller may keep one memo across runs of the same instance
    (a farm worker does, across its fuzz cells): ids are handed out in
    first-visit order and only ever compared for equality.
    ``phase`` memoises the automata's ``phase`` hook per
    ``(state id, pid)``; ``supported`` reports whether every automaton
    exposes it and ``in_critical_section`` (mutex-style automata only).

    The table is stored by column: each per-state field, the state's
    register tuple and its locals id among them, is one slot of a flat
    list indexed by state id.  Register tuples, slot entries and
    locals parts are interned, so equal parts are one object however
    many states hold them.  A memo grows with every state its callers
    touch and is never evicted.
    """

    def __init__(
        self,
        instance: StepInstance,
        invariant: Optional[Callable[..., Optional[str]]] = None,
    ) -> None:
        self.instance = instance
        self.invariant = invariant
        self.supported = all(
            hasattr(a, "in_critical_section") and hasattr(a, "phase")
            for a in instance.automata.values()
        )
        #: Register tuples and slot entries, each interned by value.
        self._parts: Dict[Any, Any] = {}
        # Per locals part (indexed by locals id).
        self._locals_ids: Dict[Tuple[Any, ...], int] = {}
        self._locals: List[Tuple[Any, ...]] = []
        self._contexts: List[Optional[Context]] = []
        self._cs_masks: List[Optional[int]] = []
        #: Contexts, interned by value.
        self._context_of: Dict[Any, Context] = {}
        # Per state (indexed by state id).
        self._ids: Dict[Tuple[Tuple[Any, ...], int], int] = {}
        self._registers: List[Tuple[Any, ...]] = []
        self._lids: List[int] = []
        self._messages: List[Any] = []
        #: pid -> the successor column of its slot.
        self._next_of: Dict[ProcessId, List[Optional[int]]] = {
            pid: [] for pid in instance.slot_of
        }
        self.states = _States(self._registers, self._lids, self._locals)
        self._rejections: Dict[
            Tuple[int, ProcessId], Tuple[Type[Exception], Tuple[Any, ...]]
        ] = {}
        self._phase: Dict[Tuple[int, ProcessId], str] = {}

    def intern(self, state: GlobalState) -> int:
        """The id of ``state``, assigning the next one if it is new."""
        registers, locals_part = state
        lid = self._locals_ids.get(locals_part)
        if lid is None:
            parts = self._parts
            locals_part = tuple(parts.setdefault(e, e) for e in locals_part)
            lid = self._locals_ids[locals_part] = len(self._locals)
            self._locals.append(locals_part)
            self._contexts.append(None)
            self._cs_masks.append(None)
        sid = self._ids.get((registers, lid))
        if sid is None:
            registers = self._parts.setdefault(registers, registers)
            sid = self._ids[registers, lid] = len(self._lids)
            self._registers.append(registers)
            self._lids.append(lid)
            self._messages.append(_UNSET)
            for column in self._next_of.values():
                column.append(None)
        return sid

    def step(self, sid: int, pid: ProcessId) -> int:
        """The id of ``pid``'s successor of state ``sid``, or
        :data:`REJECTED`."""
        column = self._next_of.get(pid)
        if column is not None:
            successor = column[sid]
            if successor is not None:
                return successor
        return self._miss(sid, pid, column)

    def advance(self, sid: int, pid: ProcessId) -> int:
        """:meth:`step`, raising the kernel's error on a rejected step
        (the search's step)."""
        column = self._next_of[pid]
        successor = column[sid]
        if successor is None:
            successor = self._miss(sid, pid, column)
        if successor == REJECTED:
            error_type, args = self._rejections[(sid, pid)]
            raise error_type(*args)
        return successor

    def _miss(
        self, sid: int, pid: ProcessId, column: Optional[List[Optional[int]]]
    ) -> int:
        parent = self._registers[sid], self._locals[self._lids[sid]]
        try:
            state = step_value(self.instance, parent, pid)
        except (SchedulingError, ProtocolError) as error:
            # Not the error itself: its traceback would pin every frame
            # above the step for as long as the memo lives.
            self._rejections[(sid, pid)] = (type(error), error.args)
            successor = REJECTED
        else:
            successor = self.intern(state)
        if column is not None:  # an unknown pid has no column
            column[sid] = successor
        return successor

    def replay(self, sid: int, schedule: Sequence[ProcessId]) -> Optional[int]:
        """Walk ``schedule`` from ``sid``; ``None`` if a step is rejected
        (the memoised :func:`replay_values`)."""
        next_of = self._next_of
        for pid in schedule:  # :meth:`step`, inlined: ddmin's hot loop
            column = next_of.get(pid)
            successor = None if column is None else column[sid]
            if successor is None:
                successor = self._miss(sid, pid, column)
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
            sid = self.advance(sid, pid)
        return sid, max_steps, self._settled(sid, slot)

    def _settled(self, sid: int, slot: int) -> bool:
        _, _, halted, crashed = self._locals[self._lids[sid]][slot]
        return halted or crashed

    def context(self, sid: int) -> Context:
        """The live pids at ``sid``, in scheduler order, and the physical
        register each one's pending operation touches."""
        lid = self._lids[sid]
        context = self._contexts[lid]
        if context is None:
            instance = self.instance
            state = self.states[sid]
            live = enabled_pids(instance, state)
            pending = tuple(
                (pid, _pending_register(instance, state, pid)) for pid in live
            )
            context = self._context_of.get((live, pending))
            if context is None:
                context = self._context_of[live, pending] = (live, dict(pending))
            self._contexts[lid] = context
        return context

    def live_pids(self, sid: int) -> Tuple[ProcessId, ...]:
        """Processes neither halted nor crashed at ``sid``, in scheduler
        order."""
        return self.context(sid)[0]

    def cs_mask(self, sid: int) -> int:
        """The slots in their critical section at ``sid``, one bit each
        (bit ``slot_of[pid]``)."""
        lid = self._lids[sid]
        mask = self._cs_masks[lid]
        if mask is None:
            automata = self.instance.automata
            mask = 0
            for slot, (pid, local, _, _) in enumerate(self._locals[lid]):
                if automata[pid].in_critical_section(local):
                    mask |= 1 << slot
            self._cs_masks[lid] = mask
        return mask

    def in_cs(self, sid: int, pid: ProcessId) -> bool:
        """Whether ``pid`` is in its critical section at ``sid``."""
        return bool(self.cs_mask(sid) >> self.instance.slot_of[pid] & 1)

    def message(self, sid: int) -> Optional[str]:
        """The memo invariant's violation message at ``sid`` (``None``
        when the state is clean or the memo has no invariant)."""
        message = self._messages[sid]
        if message is _UNSET:
            invariant = self.invariant
            message = self._messages[sid] = (
                None
                if invariant is None
                else invariant(StateView(self.instance, self.states[sid]))
            )
        return message

    def phase(self, sid: int, pid: ProcessId) -> str:
        """``pid``'s section (entry/critical/exit/remainder) at ``sid``."""
        name = self._phase.get((sid, pid))
        if name is None:
            local = self.instance.slot_entry(self.states[sid], pid)[1]
            name = self.instance.automata[pid].phase(local)
            self._phase[(sid, pid)] = name
        return name


class _States:
    """:attr:`StepMemo.states`: state id -> its value state, rebuilt
    from its register tuple and its locals part."""

    __slots__ = ("_registers", "_lids", "_locals")

    def __init__(
        self,
        registers: List[Tuple[Any, ...]],
        lids: List[int],
        locals_parts: List[Tuple[Any, ...]],
    ) -> None:
        self._registers = registers
        self._lids = lids
        self._locals = locals_parts

    def __len__(self) -> int:
        return len(self._lids)

    def __getitem__(self, sid: int) -> GlobalState:
        return self._registers[sid], self._locals[self._lids[sid]]


def _pending_register(
    instance: StepInstance, state: GlobalState, pid: ProcessId
) -> Optional[int]:
    """The physical register ``pid``'s next operation at ``state``
    touches; ``None`` for a local step, an out-of-range register or a
    ``next_op`` that raises (the step itself raises)."""
    local = instance.slot_entry(state, pid)[1]
    try:
        op = instance.automata[pid].next_op(local)
    except Exception:  # noqa: BLE001 — poison ops surface on the step
        return None
    if isinstance(op, (ReadOp, WriteOp)):
        perm = instance.permutations[pid]
        if 0 <= op.index < len(perm):
            return perm[op.index]
    return None


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
    next_of, lids, masks = memo._next_of, memo._lids, memo._cs_masks
    slot_of = memo.instance.slot_of
    sid, inside = entry, memo.cs_mask(entry)
    # :meth:`StepMemo.step` and :meth:`StepMemo.cs_mask`, inlined: every
    # search revisit and every shrink candidate walks this loop.
    for pid in cycle:
        column = next_of.get(pid)
        successor = None if column is None else column[sid]
        if successor is None:
            successor = memo._miss(sid, pid, column)
        if successor == REJECTED:
            return False
        after = masks[lids[successor]]
        if after is None:
            after = memo.cs_mask(successor)
        if (after & ~inside) >> slot_of[pid] & 1:
            return False  # progress edge: someone got in
        sid, inside = successor, after
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
    final state is clean).  Only the memo's own invariant reads its
    message rows; any other is evaluated on the state."""
    final = memo.replay(initial, schedule)
    if final is None:
        return None
    if invariant is memo.invariant:
        return memo.message(final)
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
