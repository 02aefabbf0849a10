"""Table-compiled step kernel: packed states, integer transition tables.

The interpreted hot path costs, per event, a ``next_op`` call, an
``isinstance`` dispatch, an ``apply`` call, an ``is_halted`` call, and a
tuple rebuild over heterogeneous values.  For the shipped automata the
whole of that work is a pure function of *which local state the stepping
process is in* and *which register value it reads* — both drawn from
small finite sets.  This module hoists it to compile time:

1. :func:`compile_program` enumerates each slot's reachable local-state
   space and the closed register value domain ahead of time (an
   interleaved fixpoint: classifying a state can grow the value domain
   via its write, and growing the domain extends every read row), and
   collapses ``next_op`` / ``apply`` / ``is_halted`` into dense integer
   tables — ``kind[s][si]`` (LOCAL / READ / WRITE / HALTED / RAISE),
   ``arg[s][si]`` (physical register index), ``write_value[s][si]``,
   ``next_state[s][si]`` and per-read-state rows
   ``rows[s][si][value_index]``.

2. A :data:`PackedState` is a flat tuple of small integers — ``m``
   register value indices followed by one local-state index per slot —
   so successor expansion is integer indexing plus a tuple copy instead
   of attribute lookups and ``isinstance`` dispatch per step.  The
   two-process walk carries each state as one int instead, with a bit
   field per packed position sized from the tables
   (:meth:`CompiledProgram.encode`); there a successor is the state plus
   a precomputed delta (:meth:`CompiledProgram.delta_tables`), and the
   visited set holds ints.

3. :class:`CompiledBackend` conforms to the
   :class:`~repro.runtime.backends.ExplorationBackend` protocol and
   mirrors :class:`~repro.runtime.backends.SerialBackend` statement for
   statement over packed states, including ``retain_graph`` recording
   whose :meth:`StateGraph.to_bytes` is byte-identical.

**Overflow to the interpreter.**  Compilation is best-effort, never
load-bearing for correctness:

* If a local-state space or value domain is unbounded (caps exceeded),
  a hook raises, or the instance's shape is unexpected, the backend
  falls back wholesale to ``SerialBackend`` — bit-identical by
  definition.  ``result.kernel`` stays ``"interpreted"`` in that case so
  callers can see which kernel actually ran.
* A transition whose ``next_op``/``apply``/``is_halted`` raised at
  compile time is marked :data:`OP_RAISE`; reaching it at runtime
  unpacks the state and re-executes the interpreted
  :func:`~repro.runtime.kernel.step_value`, reproducing the genuine
  exception (the automata are deterministic).
* Invariants are handled by *suspicion tables*: for the stock invariants
  a per-(slot, local-state) fact table decides suspicion with a few
  integer lookups, and only suspected states are unpacked and handed to
  the real invariant — so violation messages are byte-identical by
  construction.  Unknown invariants are evaluated on every state over an
  unpacked :class:`~repro.runtime.kernel.StateView` (slow but exact).
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.telemetry import NULL_TELEMETRY, TelemetrySink
from repro.runtime.backends import ExplorationTask, Invariant, SerialBackend
from repro.runtime.canonical import TrivialCanonicalizer
from repro.runtime.exploration import ExplorationResult
from repro.runtime.kernel import GlobalState, StateView, StepInstance, step_value
from repro.runtime.ops import ReadOp, WriteOp
from repro.types import ProcessId

#: A packed global state: ``m`` register value indices followed by one
#: local-state index per slot, all small ints.  Injective over the
#: enumerated closure by construction (indices are interned by value
#: equality, exactly like the canonicalizer's digest intern).
PackedState = Tuple[int, ...]

# Transition kinds, one per local state per slot.
OP_LOCAL = 0  #: no memory effect; successor in ``next_state``
OP_READ = 1  #: successor row indexed by the read value's index
OP_WRITE = 2  #: writes ``write_value`` to ``arg``; successor in ``next_state``
OP_HALTED = 3  #: no transition; stepping it is a scheduling error
OP_RAISE = 4  #: compile-time poison — delegate to the interpreter

#: Poisoned read-row entry: this (state, value) transition raised at
#: compile time; delegate to the interpreter to reproduce the exception.
RAISE_ENTRY = -1


class CompileOverflow(Exception):
    """The instance exceeds the compiler's enumerable envelope.

    Raised when a local-state space or register value domain is (or
    appears) unbounded, a value is unhashable, or the instance's shape
    does not match the packed layout.  The backend responds by falling
    back to the interpreted ``SerialBackend``.
    """


class _Poison(Exception):
    """Internal: a hook raised while materialising a successor state."""


class CompiledProgram:
    """Dense transition tables for one :class:`StepInstance`.

    Instances are produced by :func:`compile_program`; all attributes
    are read-mostly plain lists/tuples so the backend's hot loop can
    hoist them into locals.
    """

    def __init__(
        self,
        instance: StepInstance,
        values: List[Any],
        value_index: Dict[Any, int],
        slots: Tuple[ProcessId, ...],
        autos: List[Any],
        states: List[List[Any]],
        state_index: List[Dict[Any, int]],
        halted: List[List[bool]],
        crashed: List[bool],
        kind: List[List[int]],
        arg: List[List[int]],
        write_value: List[List[int]],
        next_state: List[List[int]],
        rows: List[List[Optional[List[int]]]],
        initial_packed: PackedState,
    ) -> None:
        self.instance = instance
        self.values = values
        self.value_index = value_index
        self.slots = slots
        self.autos = autos
        self.states = states
        self.state_index = state_index
        self.halted = halted
        self.crashed = crashed
        self.kind = kind
        self.arg = arg
        self.write_value = write_value
        self.next_state = next_state
        self.rows = rows
        self.initial_packed = initial_packed
        self.m = len(initial_packed) - len(slots)
        #: (pid, slot, packed offset) in the instance's scheduling order.
        self.step_order: Tuple[Tuple[ProcessId, int, int], ...] = tuple(
            (pid, instance.slot_of[pid], self.m + instance.slot_of[pid])
            for pid in instance.pid_order
        )
        # Int layout: packed position i is the bit field of width
        # field_mask[i].bit_length() at field_shift[i], position 0 lowest,
        # each as narrow as its table allows (one value or one local
        # state needs no bits).
        value_bits = max(len(values) - 1, 0).bit_length()
        widths = [value_bits] * self.m + [
            (len(slot_states) - 1).bit_length() for slot_states in states
        ]
        shifts: List[int] = []
        bits = 0
        for width in widths:
            shifts.append(bits)
            bits += width
        self.field_shift: Tuple[int, ...] = tuple(shifts)
        self.field_mask: Tuple[int, ...] = tuple((1 << w) - 1 for w in widths)
        self.value_mask = (1 << value_bits) - 1
        #: Total width; ``state >> state_bits`` is 0 for every int state.
        self.state_bits = bits

    # -- conversions ---------------------------------------------------

    def pack(self, state: GlobalState) -> PackedState:
        """Pack a kernel value state; raises if outside the closure."""
        registers, locals_part = state
        return tuple(self.value_index[v] for v in registers) + tuple(
            self.state_index[s][entry[1]]
            for s, entry in enumerate(locals_part)
        )

    def unpack(self, packed: PackedState) -> GlobalState:
        """Rebuild the exact kernel value state a packed state denotes."""
        m = self.m
        registers = tuple(self.values[vi] for vi in packed[:m])
        locals_part = tuple(
            (
                pid,
                self.states[s][packed[m + s]],
                self.halted[s][packed[m + s]],
                self.crashed[s],
            )
            for s, pid in enumerate(self.slots)
        )
        return registers, locals_part

    def encode(self, packed: PackedState) -> int:
        """The int form of a packed state: each index in its bit field."""
        return sum(
            index << shift for index, shift in zip(packed, self.field_shift)
        )

    def decode(self, state: int) -> PackedState:
        """The packed state an int state denotes (inverse of :meth:`encode`)."""
        return tuple(
            (state >> shift) & mask
            for shift, mask in zip(self.field_shift, self.field_mask)
        )

    def delta_tables(
        self,
    ) -> Tuple[List[List[List[Optional[int]]]], List[List[int]]]:
        """Per slot and local state, the int-state change of its step.

        Returns ``(deltas, at)``.  The step of slot ``s`` from local
        state ``si`` turns int state ``x`` into ``x + d`` with::

            d = deltas[s][si][(x >> at[s][si]) & self.value_mask]

        A READ row is indexed by the read register's value, a WRITE row
        by the overwritten register's value (the write's register delta
        plus the slot's); a LOCAL row has one entry, selected by
        ``at == state_bits``.  ``d == 0`` is exactly the inert step
        (child == state: encoding is injective).  ``None`` marks an
        entry the tables cannot take — a poisoned read, OP_RAISE, or
        OP_HALTED — which goes through :meth:`step_packed`.
        """
        m = self.m
        shift = self.field_shift
        nvalues = len(self.values)
        deltas: List[List[List[Optional[int]]]] = []
        at: List[List[int]] = []
        for s in range(len(self.slots)):
            own = shift[m + s]
            kind = self.kind[s]
            deltas_s: List[List[Optional[int]]] = []
            at_s: List[int] = []
            for si, k in enumerate(kind):
                if k == OP_READ:
                    row = self.rows[s][si]
                    assert row is not None
                    deltas_s.append(
                        [(nsi - si) << own if nsi >= 0 else None for nsi in row]
                    )
                    at_s.append(shift[self.arg[s][si]])
                elif k == OP_WRITE:
                    phys_shift = shift[self.arg[s][si]]
                    step = (self.next_state[s][si] - si) << own
                    new = self.write_value[s][si]
                    deltas_s.append(
                        [
                            step + ((new - old) << phys_shift)
                            for old in range(nvalues)
                        ]
                    )
                    at_s.append(phys_shift)
                else:
                    deltas_s.append(
                        [(self.next_state[s][si] - si) << own]
                        if k == OP_LOCAL
                        else [None]
                    )
                    at_s.append(self.state_bits)
            deltas.append(deltas_s)
            at.append(at_s)
        return deltas, at

    def slot_entries(self) -> List[List[Tuple[ProcessId, Any, bool, bool]]]:
        """``[slot][si]``: the ``(pid, local, halted, crashed)`` entry a
        kernel state holds for local state ``si`` — the component table
        a retained graph rebuilds states from."""
        return [
            [
                (pid, local, halted, self.crashed[s])
                for local, halted in zip(self.states[s], self.halted[s])
            ]
            for s, pid in enumerate(self.slots)
        ]

    # -- stepping ------------------------------------------------------

    def step_packed(self, packed: PackedState, slot: int) -> PackedState:
        """One step of ``slot``'s process on a packed state.

        Table-driven for LOCAL/READ/WRITE; overflow entries (poisoned
        reads, OP_RAISE, OP_HALTED) delegate to the interpreter, which
        reproduces the interpreted result or exception exactly.
        """
        off = self.m + slot
        si = packed[off]
        k = self.kind[slot][si]
        if k == OP_READ:
            row = self.rows[slot][si]
            assert row is not None
            nsi = row[packed[self.arg[slot][si]]]
            if nsi < 0:
                return self._interpret(packed, slot)
            return packed[:off] + (nsi,) + packed[off + 1 :]
        if k == OP_WRITE:
            phys = self.arg[slot][si]
            return (
                packed[:phys]
                + (self.write_value[slot][si],)
                + packed[phys + 1 : off]
                + (self.next_state[slot][si],)
                + packed[off + 1 :]
            )
        if k == OP_LOCAL:
            return packed[:off] + (self.next_state[slot][si],) + packed[off + 1 :]
        return self._interpret(packed, slot)

    def _interpret(self, packed: PackedState, slot: int) -> PackedState:
        """Overflow path: unpack, run the interpreted step, repack."""
        state = self.unpack(packed)
        child = step_value(self.instance, state, self.slots[slot])
        return self.pack(child)

    # -- batched expansion ---------------------------------------------

    def live_tables(self) -> List[List[bool]]:
        """``live[slot][si]`` ⟺ the slot can step from local state si
        (not halted, not crashed) — the enabled-pid predicate over
        packed components."""
        return [
            [not (self.crashed[s] or h) for h in self.halted[s]]
            for s in range(len(self.slots))
        ]

    def expand_batch(self, flat: Sequence[int]) -> Tuple["array", "array"]:
        """One-step successors of a flat batch of packed states.

        ``flat`` holds packed states back to back (``m + nslots`` ints
        each; an ``array('q')`` or any int sequence).  Returns
        ``(children, edges)``:

        * ``edges`` is a flat ``array('q')`` of ``(src, slot, inert)``
          triples — one per enabled slot of every batch state, in the
          instance's scheduling order within each state (so per-source
          edge order matches the serial walk's pid order).  ``src`` is
          the state's index within the batch; ``inert`` is 1 when the
          step is a single-step self-loop (child == state, which under
          the serial semantics costs exactly 2 events and retains a
          self-edge).
        * ``children`` is a flat ``array('q')`` holding one packed
          child per **non-inert** edge, in edge order (inert edges
          contribute no child row — the child is the source).

        A source with no edges is terminal (every slot halted or
        crashed).  Poisoned table entries delegate to the interpreter
        exactly like :meth:`step_packed`, so genuine hook exceptions
        propagate to the caller unchanged.
        """
        m = self.m
        nslots = len(self.slots)
        stride = m + nslots
        kind = self.kind
        arg = self.arg
        wval = self.write_value
        nxt = self.next_state
        rows = self.rows
        live = self.live_tables()
        step_order = self.step_order
        children = array("q")
        edges = array("q")
        for base in range(0, len(flat), stride):
            src = base // stride
            for _pid, s, off in step_order:
                si = flat[base + off]
                if not live[s][si]:
                    continue
                k = kind[s][si]
                if k == OP_READ:
                    row = rows[s][si]
                    assert row is not None
                    nsi = row[flat[base + arg[s][si]]]
                    if nsi >= 0:
                        if nsi == si:
                            edges.extend((src, s, 1))
                            continue
                        start = len(children)
                        children.extend(flat[base : base + stride])
                        children[start + off] = nsi
                        edges.extend((src, s, 0))
                        continue
                elif k == OP_WRITE:
                    phys = arg[s][si]
                    nsi = nxt[s][si]
                    if nsi == si and flat[base + phys] == wval[s][si]:
                        edges.extend((src, s, 1))
                        continue
                    start = len(children)
                    children.extend(flat[base : base + stride])
                    children[start + phys] = wval[s][si]
                    children[start + off] = nsi
                    edges.extend((src, s, 0))
                    continue
                elif k == OP_LOCAL:
                    nsi = nxt[s][si]
                    if nsi == si:
                        edges.extend((src, s, 1))
                        continue
                    start = len(children)
                    children.extend(flat[base : base + stride])
                    children[start + off] = nsi
                    edges.extend((src, s, 0))
                    continue
                # Poisoned entry (OP_RAISE, or a poisoned read row):
                # interpret, reproducing the genuine result/exception.
                state = tuple(flat[base : base + stride])
                child = self._interpret(state, s)
                if child == state:
                    edges.extend((src, s, 1))
                else:
                    children.extend(child)
                    edges.extend((src, s, 0))
        return children, edges


def compile_program(
    instance: StepInstance,
    initial: GlobalState,
    domain_hint: Sequence[Any] = (),
    max_local_states: int = 65536,
    max_domain: int = 4096,
) -> CompiledProgram:
    """Enumerate the closure of ``initial`` into a :class:`CompiledProgram`.

    Interleaved fixpoint: classify pending local states (which can grow
    the value domain through writes and spawn successor states through
    applies), then extend every read row to span the current domain
    (which can spawn further states), until both queues are dry.  At the
    fixpoint every read row covers the full closed domain, so no
    reachable runtime read can fall off a row — the :data:`RAISE_ENTRY`
    sentinel remains as a defensive overflow only for transitions whose
    hooks genuinely raised.

    ``domain_hint`` seeds the value domain (a
    :meth:`~repro.problems.spec.ProblemSpec.value_domain` declaration);
    a superset is harmless, a subset is completed by the fixpoint.

    Raises :class:`CompileOverflow` when the closure exceeds the caps or
    the instance's shape defeats packing; callers fall back to the
    interpreter.
    """
    registers, locals_part = initial
    m = len(registers)
    slots = tuple(entry[0] for entry in locals_part)
    for pid, slot in instance.slot_of.items():
        if slot >= len(slots) or slots[slot] != pid:
            raise CompileOverflow("slot layout does not match the instance")
    autos = [instance.automata[pid] for pid in slots]
    perms = [instance.permutations[pid] for pid in slots]
    crashed = [bool(entry[3]) for entry in locals_part]
    nslots = len(slots)

    values: List[Any] = []
    value_index: Dict[Any, int] = {}

    def intern_value(value: Any) -> int:
        try:
            vi = value_index.get(value)
        except TypeError as error:
            raise CompileOverflow(
                f"unhashable register value {value!r}"
            ) from error
        if vi is None:
            if len(values) >= max_domain:
                raise CompileOverflow(
                    f"register value domain exceeds {max_domain} values"
                )
            vi = len(values)
            value_index[value] = vi
            values.append(value)
        return vi

    for value in registers:
        intern_value(value)
    for value in domain_hint:
        intern_value(value)

    states: List[List[Any]] = [[] for _ in range(nslots)]
    state_index: List[Dict[Any, int]] = [{} for _ in range(nslots)]
    halted: List[List[bool]] = [[] for _ in range(nslots)]
    kind: List[List[int]] = [[] for _ in range(nslots)]
    arg: List[List[int]] = [[] for _ in range(nslots)]
    write_value: List[List[int]] = [[] for _ in range(nslots)]
    next_state: List[List[int]] = [[] for _ in range(nslots)]
    rows: List[List[Optional[List[int]]]] = [[] for _ in range(nslots)]
    pending: List[Tuple[int, int]] = []
    # (slot, si, the ReadOp) for every READ state, for row extension.
    read_sites: List[Tuple[int, int, Any]] = []

    def add_state(slot: int, local: Any) -> int:
        try:
            si = state_index[slot].get(local)
        except TypeError as error:
            raise CompileOverflow(
                f"unhashable local state for slot {slot}"
            ) from error
        if si is None:
            if len(states[slot]) >= max_local_states:
                raise CompileOverflow(
                    f"slot {slot} local-state space exceeds"
                    f" {max_local_states} states"
                )
            try:
                is_halted = bool(autos[slot].is_halted(local))
            except CompileOverflow:
                raise
            except Exception as error:
                raise _Poison from error
            si = len(states[slot])
            state_index[slot][local] = si
            states[slot].append(local)
            halted[slot].append(is_halted)
            kind[slot].append(OP_RAISE)
            arg[slot].append(0)
            write_value[slot].append(0)
            next_state[slot].append(0)
            rows[slot].append(None)
            pending.append((slot, si))
        return si

    initial_sis: List[int] = []
    for slot, entry in enumerate(locals_part):
        try:
            si = add_state(slot, entry[1])
        except _Poison as error:
            raise CompileOverflow(
                f"is_halted raised on slot {slot}'s initial state"
            ) from error
        if halted[slot][si] != bool(entry[2]):
            raise CompileOverflow(
                f"slot {slot}: initial halted flag disagrees with is_halted"
            )
        initial_sis.append(si)

    def classify(slot: int, si: int) -> None:
        local = states[slot][si]
        if halted[slot][si]:
            kind[slot][si] = OP_HALTED
            return
        auto = autos[slot]
        try:
            op = auto.next_op(local)
        except Exception:
            kind[slot][si] = OP_RAISE
            return
        if isinstance(op, ReadOp):
            # An out-of-range view index raises ProtocolError at
            # runtime; leave it to the interpreter to say so.
            if not 0 <= op.index < m:
                kind[slot][si] = OP_RAISE
                return
            kind[slot][si] = OP_READ
            arg[slot][si] = perms[slot][op.index]
            rows[slot][si] = []
            read_sites.append((slot, si, op))
            return
        if isinstance(op, WriteOp):
            if not 0 <= op.index < m:
                kind[slot][si] = OP_RAISE
                return
            vi = intern_value(op.value)
            try:
                nsi = add_state(slot, auto.apply(local, op, None))
            except (_Poison, CompileOverflow) as error:
                if isinstance(error, CompileOverflow):
                    raise
                kind[slot][si] = OP_RAISE
                return
            except Exception:
                kind[slot][si] = OP_RAISE
                return
            kind[slot][si] = OP_WRITE
            arg[slot][si] = perms[slot][op.index]
            write_value[slot][si] = vi
            next_state[slot][si] = nsi
            return
        # Any other operation: no memory effect, read result is None.
        try:
            nsi = add_state(slot, auto.apply(local, op, None))
        except (_Poison, CompileOverflow) as error:
            if isinstance(error, CompileOverflow):
                raise
            kind[slot][si] = OP_RAISE
            return
        except Exception:
            kind[slot][si] = OP_RAISE
            return
        kind[slot][si] = OP_LOCAL
        next_state[slot][si] = nsi

    while True:
        while pending:
            slot, si = pending.pop()
            classify(slot, si)
        progress = False
        for slot, si, op in read_sites:
            row = rows[slot][si]
            assert row is not None
            if len(row) == len(values):
                continue
            local = states[slot][si]
            auto = autos[slot]
            while len(row) < len(values):
                value = values[len(row)]
                try:
                    nsi = add_state(slot, auto.apply(local, op, value))
                except (_Poison, CompileOverflow) as error:
                    if isinstance(error, CompileOverflow):
                        raise
                    nsi = RAISE_ENTRY
                except Exception:
                    nsi = RAISE_ENTRY
                row.append(nsi)
            progress = True
        if not pending and not progress:
            break

    initial_packed = tuple(value_index[v] for v in registers) + tuple(
        initial_sis
    )
    return CompiledProgram(
        instance=instance,
        values=values,
        value_index=value_index,
        slots=slots,
        autos=autos,
        states=states,
        state_index=state_index,
        halted=halted,
        crashed=crashed,
        kind=kind,
        arg=arg,
        write_value=write_value,
        next_state=next_state,
        rows=rows,
        initial_packed=initial_packed,
    )


# -- invariant compilation ---------------------------------------------
#
# A *suspect function* maps a packed state to "might the invariant
# return non-None here?".  It must never report False on a state the
# interpreted invariant would flag (false negatives are unsound); a
# False positive merely costs one unpack + real-invariant call that
# returns None.  The fact tables below are exact on every enumerated
# state, so both directions hold; any hook failure during fact
# computation poisons the table and the checker degrades to evaluating
# the real invariant on every state (slow but trivially exact).

_SKIP = object()  # slot not decided (not halted, or output is None)


def _always_suspect(_packed: PackedState) -> bool:
    """Generic fallback: treat every state as suspect (evaluate the
    real invariant on all of them — slow but trivially exact)."""
    return True


def _output_facts(program: CompiledProgram) -> Optional[List[List[Any]]]:
    """Per (slot, si): the decided non-None output, else ``_SKIP``.

    Returns None (poison) if any ``output`` hook raises or any output
    is unhashable (the stock invariants build sets of them, so an
    unhashable output makes the *interpreted* invariant raise — the
    generic path reproduces that).
    """
    facts: List[List[Any]] = []
    for slot, auto in enumerate(program.autos):
        row: List[Any] = []
        for si, local in enumerate(program.states[slot]):
            if not program.halted[slot][si]:
                row.append(_SKIP)
                continue
            try:
                out = auto.output(local)
                hash(out)
            except Exception:
                return None
            row.append(_SKIP if out is None else out)
        facts.append(row)
    return facts


class _PairSuspect:
    """Two-slot boolean-AND suspect (mutex with n=2).

    Callable like any suspect function, but also exposes its per-slot
    fact tables so the two-process walk can test the two subscripts
    inline and decode and call only on states both flag: with 0/1
    facts, ``count > 1`` ⟺ both flags set.
    """

    __slots__ = ("tables", "m")

    def __init__(self, tables: List[List[int]], m: int) -> None:
        self.tables = tables
        self.m = m

    def __call__(self, packed: PackedState) -> bool:
        m = self.m
        return bool(self.tables[0][packed[m]] and self.tables[1][packed[m + 1]])


def _mutex_suspect(
    program: CompiledProgram,
) -> Optional[Callable[[PackedState], bool]]:
    """Suspect when ≥ 2 non-halted processes sit in the critical section."""
    tables: List[List[int]] = []
    for slot, auto in enumerate(program.autos):
        in_cs = getattr(auto, "in_critical_section", None)
        if in_cs is None:
            return None
        row: List[int] = []
        for si, local in enumerate(program.states[slot]):
            if program.halted[slot][si]:
                row.append(0)
            else:
                try:
                    row.append(1 if in_cs(local) else 0)
                except Exception:
                    return None
        tables.append(row)
    m = program.m
    if len(tables) == 2:
        return _PairSuspect(tables, m)
    offs = [(m + slot, row) for slot, row in enumerate(tables)]

    def suspect(packed: PackedState) -> bool:
        count = 0
        for off, row in offs:
            count += row[packed[off]]
        return count > 1

    return suspect


def _agreement_suspect(
    program: CompiledProgram,
) -> Optional[Callable[[PackedState], bool]]:
    """Suspect when two decided outputs are distinct (set semantics)."""
    facts = _output_facts(program)
    if facts is None:
        return None
    m = program.m
    offs = [(m + slot, row) for slot, row in enumerate(facts)]

    def suspect(packed: PackedState) -> bool:
        decided = [
            v for off, row in offs if (v := row[packed[off]]) is not _SKIP
        ]
        return len(decided) > 1 and len(set(decided)) > 1

    return suspect


def _validity_suspect(
    program: CompiledProgram,
) -> Optional[Callable[[PackedState], bool]]:
    """Suspect when a decided output is not one of the instance inputs."""
    try:
        legal = set(program.instance.inputs.values())
    except Exception:
        return None
    facts = _output_facts(program)
    if facts is None:
        return None
    tables: List[List[bool]] = []
    for row in facts:
        try:
            tables.append(
                [v is not _SKIP and v not in legal for v in row]
            )
        except Exception:
            return None
    m = program.m
    offs = [(m + slot, row) for slot, row in enumerate(tables)]

    def suspect(packed: PackedState) -> bool:
        return any(row[packed[off]] for off, row in offs)

    return suspect


def _unique_names_suspect(
    program: CompiledProgram,
) -> Optional[Callable[[PackedState], bool]]:
    """Suspect on duplicate names or a name outside ``1..n``."""
    facts = _output_facts(program)
    if facts is None:
        return None
    n = len(program.instance.inputs)
    bad: List[List[bool]] = []
    for row in facts:
        bad_row: List[bool] = []
        for v in row:
            if v is _SKIP:
                bad_row.append(False)
            else:
                try:
                    bad_row.append(not 1 <= v <= n)
                except Exception:
                    # Non-comparable name: the interpreted invariant's
                    # range check raises on such states — only the
                    # generic path reproduces that faithfully.
                    return None
        bad.append(bad_row)
    m = program.m
    offs = [
        (m + slot, facts[slot], bad[slot]) for slot in range(len(facts))
    ]

    def suspect(packed: PackedState) -> bool:
        names: List[Any] = []
        for off, row, bad_row in offs:
            si = packed[off]
            v = row[si]
            if v is _SKIP:
                continue
            if bad_row[si]:
                return True
            names.append(v)
        return len(names) > 1 and len(set(names)) != len(names)

    return suspect


def _compile_suspect(
    invariant: Invariant, program: CompiledProgram
) -> Optional[Callable[[PackedState], bool]]:
    """Suspect function for a known invariant, or None to go generic."""
    from repro.runtime import exploration as _exploration

    try:
        from repro.verify.runner import _no_invariant
    except ImportError:  # pragma: no cover - verify layer always ships
        _no_invariant = None
    if _no_invariant is not None and invariant is _no_invariant:
        return lambda packed: False
    if invariant is _exploration.mutual_exclusion_invariant:
        return _mutex_suspect(program)
    if invariant is _exploration.agreement_invariant:
        return _agreement_suspect(program)
    if invariant is _exploration.validity_invariant:
        return _validity_suspect(program)
    if invariant is _exploration.unique_names_invariant:
        return _unique_names_suspect(program)
    if isinstance(invariant, _exploration._ConjoinedInvariant):
        subs = [
            _compile_suspect(sub, program) for sub in invariant.invariants
        ]
        if any(sub is None for sub in subs):
            return None

        def conjoined(packed: PackedState) -> bool:
            for sub in subs:
                if sub(packed):  # type: ignore[misc]
                    return True
            return False

        return conjoined
    return None


def compile_checker(
    invariant: Invariant, program: CompiledProgram
) -> Callable[[PackedState], Optional[str]]:
    """Packed-state invariant checker, message-identical to ``invariant``.

    Suspected states (and, on the generic path, every state) are
    unpacked and handed to the real invariant over a ``StateView``, so
    the returned violation string — or raised exception — is exactly
    the interpreted one.
    """
    suspect = _compile_suspect(invariant, program)
    instance = program.instance
    unpack = program.unpack
    if suspect is None:

        def generic(packed: PackedState) -> Optional[str]:
            return invariant(StateView(instance, unpack(packed)))

        return generic

    def fast(packed: PackedState) -> Optional[str]:
        if suspect(packed):
            return invariant(StateView(instance, unpack(packed)))
        return None

    return fast


# -- the backend -------------------------------------------------------


def _unwind(link: Any) -> Tuple[ProcessId, ...]:
    path: List[ProcessId] = []
    while link:
        link, pid = link
        path.append(pid)
    return tuple(reversed(path))


class CompiledBackend:
    """Serial DFS over packed states; bit-identical to ``SerialBackend``.

    Compilation failures of any kind fall back to the interpreted
    backend wholesale, so ``run`` is total over every task the serial
    backend accepts.  ``result.kernel`` records which kernel actually
    ran ("compiled" only when the table-driven walk did the work).
    """

    name = "compiled"
    workers = 1
    progress_interval = 8192  # power of two, matches SerialBackend

    def __init__(
        self,
        domain_hint: Sequence[Any] = (),
        max_local_states: int = 65536,
        max_domain: int = 4096,
    ) -> None:
        self.domain_hint = tuple(domain_hint)
        self.max_local_states = max_local_states
        self.max_domain = max_domain

    def run(
        self,
        task: ExplorationTask,
        telemetry: TelemetrySink = NULL_TELEMETRY,
    ) -> ExplorationResult:
        trivial = isinstance(task.canonicalizer, TrivialCanonicalizer)
        if task.retain_graph and not trivial:
            # explore() rejects this combination; a hand-built task gets
            # the serial behaviour verbatim.
            return SerialBackend().run(task, telemetry=telemetry)
        try:
            with telemetry.phase("explore.compile"):
                program = compile_program(
                    task.instance,
                    task.initial,
                    domain_hint=self.domain_hint,
                    max_local_states=self.max_local_states,
                    max_domain=self.max_domain,
                )
                suspect = _compile_suspect(task.invariant, program)
                # Digest tables key the quotient walk and give a retained
                # graph its raw keys; a plain trivial walk needs neither.
                tables = (
                    task.canonicalizer.packed_digest_tables(
                        program.values,
                        program.states,
                        program.halted,
                        program.crashed,
                    )
                    if task.retain_graph or not trivial
                    else None
                )
        except Exception:
            return SerialBackend().run(task, telemetry=telemetry)
        invariant = task.invariant
        instance = task.instance
        unpack = program.unpack

        def slow(packed: PackedState) -> Optional[str]:
            return invariant(StateView(instance, unpack(packed)))

        if suspect is None:
            # Unknown invariant: evaluate it on every state.
            suspect = _always_suspect
        if trivial:
            if len(program.slots) == 2 and not task.retain_graph:
                result = self._run_trivial_two(
                    task, program, suspect, slow, telemetry
                )
            else:
                result = self._run_trivial(
                    task, program, suspect, slow, tables, telemetry
                )
        else:
            result = self._run_general(
                task, program, suspect, slow, tables, telemetry
            )
        result.kernel = "compiled"
        return result

    # The two walks below mirror SerialBackend.run statement for
    # statement; every counter update, telemetry emission, budget check
    # and recorder call happens at the same point in the same order.
    # Deviations are all of the form "equivalent predicate over packed
    # states" and are individually justified in comments.

    def _run_trivial_two(
        self,
        task: ExplorationTask,
        program: CompiledProgram,
        suspect: Callable[[PackedState], bool],
        slow: Callable[[PackedState], Optional[str]],
        telemetry: TelemetrySink,
    ) -> ExplorationResult:
        """The two-process trivial walk, unrolled per pid, over int states.

        Semantically the n=2 instantiation of :meth:`_run_trivial`
        without a recorder — every check happens at the same point in
        the same order — but each state is one int (the layout of
        :meth:`CompiledProgram.encode`) and each successor one addition
        from :meth:`CompiledProgram.delta_tables`, so the visited set
        holds ints instead of tuples.  A state is decoded to its packed
        tuple only when the invariant's suspect is consulted (for a
        ``_PairSuspect``, only on states its tables flag) and for an
        entry the tables cannot take, which :meth:`step_packed` steps.

        Every plain (``retain_graph=False``) trivial walk of a two-slot
        instance runs here, e.g. two-process mutex explored with
        ``reduction="none"``.  ``verify`` retains graphs and so runs
        :meth:`_run_trivial`, and the three-process instances have three
        slots.
        """
        max_states = task.max_states
        max_depth = task.max_depth
        emit = telemetry.enabled
        progress_mask = self.progress_interval - 1
        encode = program.encode
        decode = program.decode
        step_packed = program.step_packed
        value_mask = program.value_mask

        (pid_a, s_a, off_a), (pid_b, s_b, off_b) = program.step_order
        shift_a = program.field_shift[off_a]
        shift_b = program.field_shift[off_b]
        mask_a = program.field_mask[off_a]
        mask_b = program.field_mask[off_b]
        live = program.live_tables()
        live_a, live_b = live[s_a], live[s_b]
        deltas, at = program.delta_tables()
        deltas_a, deltas_b = deltas[s_a], deltas[s_b]
        at_a, at_b = at[s_a], at[s_b]
        # A _PairSuspect's tables filter states before the suspect is
        # called; any other suspect is called on every state.
        if isinstance(suspect, _PairSuspect):
            cs_a, cs_b = suspect.tables[s_a], suspect.tables[s_b]
        else:
            cs_a, cs_b = [1] * len(live_a), [1] * len(live_b)

        initial = encode(program.initial_packed)
        visited = {initial}
        visit = visited.add
        stack: List[Tuple[int, int, Any]] = [(initial, 0, None)]
        push = stack.append
        pop = stack.pop
        result = ExplorationResult(
            complete=True,
            states_explored=0,
            events_executed=0,
            max_depth_reached=0,
            group_size=task.canonicalizer.group_order,
        )
        states_explored = 0
        events_executed = 0
        max_depth_reached = 0
        started = time.perf_counter()

        while stack:
            state, depth, link = pop()
            states_explored += 1
            if depth > max_depth_reached:
                max_depth_reached = depth
            if emit and not (states_explored & progress_mask):
                telemetry.gauge("explore.visited", len(visited))
                telemetry.gauge("explore.frontier", len(stack))
                telemetry.event(
                    "explore.progress",
                    states=states_explored,
                    frontier=len(stack),
                    visited=len(visited),
                    orbit_hits=result.orbits_collapsed,
                    depth=depth,
                )
            si_a = (state >> shift_a) & mask_a
            si_b = (state >> shift_b) & mask_b
            if cs_a[si_a] and cs_b[si_b]:
                packed = decode(state)
                violation = slow(packed) if suspect(packed) else None
                if violation is not None:
                    result.violation = violation
                    result.violation_schedule = _unwind(link)
                    result.truncated_by = "violation"
                    break
            enabled_a = live_a[si_a]
            enabled_b = live_b[si_b]
            if not (enabled_a or enabled_b):
                # All settled (see _run_trivial); stuck never ticks.
                continue
            if depth >= max_depth:
                result.truncated_by = "max_depth"
                continue
            # Per pid: a zero delta is the inert step (child == state).
            if enabled_a:
                delta = deltas_a[si_a][(state >> at_a[si_a]) & value_mask]
                if delta is None:
                    delta = encode(step_packed(decode(state), s_a)) - state
                if not delta:
                    events_executed += 2
                else:
                    events_executed += 1
                    child = state + delta
                    if child not in visited:
                        if len(visited) >= max_states:
                            result.truncated_by = "max_states"
                            break
                        visit(child)
                        push((child, depth + 1, (link, pid_a)))
            if enabled_b:
                delta = deltas_b[si_b][(state >> at_b[si_b]) & value_mask]
                if delta is None:
                    delta = encode(step_packed(decode(state), s_b)) - state
                if not delta:
                    events_executed += 2
                else:
                    events_executed += 1
                    child = state + delta
                    if child not in visited:
                        if len(visited) >= max_states:
                            result.truncated_by = "max_states"
                            break
                        visit(child)
                        push((child, depth + 1, (link, pid_b)))

        result.states_explored = states_explored
        result.events_executed = events_executed
        result.max_depth_reached = max_depth_reached
        result.complete = result.truncated_by is None
        result.wall_seconds = time.perf_counter() - started
        result.peak_visited = len(visited)
        if emit:
            telemetry.gauge("explore.visited", len(visited))
            telemetry.gauge("explore.frontier", len(stack))
            telemetry.count("explore.events", result.events_executed)
            telemetry.count("explore.orbit_hits", result.orbits_collapsed)
        return result

    def _run_trivial(
        self,
        task: ExplorationTask,
        program: CompiledProgram,
        suspect: Callable[[PackedState], bool],
        slow: Callable[[PackedState], Optional[str]],
        tables: Any,
        telemetry: TelemetrySink,
    ) -> ExplorationResult:
        max_states = task.max_states
        max_depth = task.max_depth
        emit = telemetry.enabled
        progress_mask = self.progress_interval - 1

        halted = program.halted
        crashed = program.crashed
        step_packed = program.step_packed
        nslots = len(program.slots)
        # One bundle per pid in scheduling order: every per-slot table
        # the expansion needs, pre-indexed so the hot loop does single
        # subscripts only.  live[s][si] ⟺ the slot can step.
        live = [
            [not (crashed[s] or h) for h in halted[s]]
            for s in range(nslots)
        ]
        step_tabs = tuple(
            (
                pid,
                s,
                off,
                live[s],
                program.kind[s],
                program.arg[s],
                program.write_value[s],
                program.next_state[s],
                program.rows[s],
            )
            for pid, s, off in program.step_order
        )

        initial = program.initial_packed
        # Under the trivial canonicalizer a raw key is the content
        # digest of the concrete state, so raw equality is state
        # equality — packed tuples (injective over the closure) are an
        # equivalent, cheaper dedup key.  Each maps to its ordinal;
        # when retaining, the dict is the graph builder's, and the walk
        # appends nodes and edges to the builder's arrays in place.
        builder = None
        visited: Dict[PackedState, int] = {initial: 0}
        if task.retain_graph:
            from repro.verify.graph import GraphBuilder

            builder = GraphBuilder(
                program.values, program.slot_entries(), initial
            )
            visited = builder.ordinal_of
            nodes_append = builder.packed.append
            opened_append = builder.opened.append
            opened_at_append = builder.opened_at.append
            edge_slot_append = builder.edge_slot.append
            edge_dst = builder.edge_dst
            edge_dst_append = edge_dst.append
        stack: List[Tuple[PackedState, int, Any, int]] = [(initial, 0, None, 0)]
        result = ExplorationResult(
            complete=True,
            states_explored=0,
            events_executed=0,
            max_depth_reached=0,
            group_size=task.canonicalizer.group_order,
        )
        states_explored = 0
        events_executed = 0
        max_depth_reached = 0
        started = time.perf_counter()

        while stack:
            state, depth, link, ordinal = stack.pop()
            states_explored += 1
            if depth > max_depth_reached:
                max_depth_reached = depth
            if emit and not (states_explored & progress_mask):
                telemetry.gauge("explore.visited", len(visited))
                telemetry.gauge("explore.frontier", len(stack))
                telemetry.event(
                    "explore.progress",
                    states=states_explored,
                    frontier=len(stack),
                    visited=len(visited),
                    orbit_hits=result.orbits_collapsed,
                    depth=depth,
                )
            if suspect(state):
                violation = slow(state)
                if violation is not None:
                    result.violation = violation
                    result.violation_schedule = _unwind(link)
                    result.truncated_by = "violation"
                    break
            expand = [t for t in step_tabs if t[3][state[t[2]]]]
            if not expand:
                # No enabled pid ⟺ every slot halted or crashed ⟺
                # all_settled, so the serial stuck counter can never
                # tick here.  Expanded, with no edges.
                if builder is not None:
                    opened_append(ordinal)
                    opened_at_append(len(edge_dst))
                continue
            if depth >= max_depth:
                result.truncated_by = "max_depth"
                continue
            if builder is not None:
                opened_append(ordinal)
                opened_at_append(len(edge_dst))
            budget_exhausted = False
            for (
                pid,
                s,
                off,
                _live_row,
                kind_row,
                arg_row,
                wval_row,
                nxt_row,
                rows_row,
            ) in expand:
                si = state[off]
                k = kind_row[si]
                if k == OP_READ:
                    nsi = rows_row[si][state[arg_row[si]]]
                    child = (
                        state[:off] + (nsi,) + state[off + 1 :]
                        if nsi >= 0
                        else step_packed(state, s)
                    )
                elif k == OP_WRITE:
                    phys = arg_row[si]
                    child = (
                        state[:phys]
                        + (wval_row[si],)
                        + state[phys + 1 : off]
                        + (nxt_row[si],)
                        + state[off + 1 :]
                    )
                elif k == OP_LOCAL:
                    child = state[:off] + (nxt_row[si],) + state[off + 1 :]
                else:
                    child = step_packed(state, s)
                if child == state:
                    # Inert self-loop.  Serial steps once (1 event),
                    # enters the acceleration loop, steps once more (a
                    # deterministic repeat), sees the local repeat and
                    # gives up: exactly 2 events, then a self-edge.
                    events_executed += 2
                    if builder is not None:
                        edge_slot_append(s)
                        edge_dst_append(ordinal)
                    continue
                events_executed += 1
                child_ordinal = visited.get(child)
                if child_ordinal is None:
                    child_ordinal = len(visited)
                    if child_ordinal < max_states:
                        visited[child] = child_ordinal
                        stack.append(
                            (child, depth + 1, (link, pid), child_ordinal)
                        )
                    else:
                        result.truncated_by = "max_states"
                        budget_exhausted = True
                    if builder is not None:
                        # The budget-tripping child is retained too, as
                        # a never-expanded node (serial does the same).
                        nodes_append(child)
                if builder is not None:
                    edge_slot_append(s)
                    edge_dst_append(child_ordinal)
                if budget_exhausted:
                    break
            if budget_exhausted:
                break

        result.states_explored = states_explored
        result.events_executed = events_executed
        result.max_depth_reached = max_depth_reached
        result.complete = result.truncated_by is None
        result.wall_seconds = time.perf_counter() - started
        result.peak_visited = len(visited)
        if builder is not None:
            result.graph = builder.finish(tables, result.complete)
        if emit:
            telemetry.gauge("explore.visited", len(visited))
            telemetry.gauge("explore.frontier", len(stack))
            telemetry.count("explore.events", result.events_executed)
            telemetry.count("explore.orbit_hits", result.orbits_collapsed)
        return result

    def _run_general(
        self,
        task: ExplorationTask,
        program: CompiledProgram,
        suspect: Callable[[PackedState], bool],
        slow: Callable[[PackedState], Optional[str]],
        tables: Any,
        telemetry: TelemetrySink,
    ) -> ExplorationResult:
        canonicalizer = task.canonicalizer
        max_states = task.max_states
        max_depth = task.max_depth
        emit = telemetry.enabled
        progress_mask = self.progress_interval - 1

        m = program.m
        halted = program.halted
        crashed = program.crashed
        step_packed = program.step_packed
        nslots = len(program.slots)
        live = [
            [not (crashed[s] or h) for h in halted[s]]
            for s in range(nslots)
        ]
        # Keys are ints, one per group element (identity first), kept
        # per stacked state and moved per step by the weight deltas of
        # the positions the step changed.  Equal ints are equal bytes
        # keys and ``<`` agrees (PackedDigestTables.orbit_weights), so
        # the walk dedups exactly as key_of_state would.
        weights = tables.orbit_weights(m)
        by_position = weights.by_position
        vector_of = weights.vector
        step_tabs = tuple(
            (
                pid,
                s,
                off,
                live[s],
                program.kind[s],
                program.arg[s],
                program.write_value[s],
                program.next_state[s],
                program.rows[s],
                by_position[off],
            )
            for pid, s, off in program.step_order
        )

        initial = program.initial_packed
        initial_vector = vector_of(initial)
        visited: Dict[int, int] = {min(initial_vector): initial_vector[0]}
        stack: List[Tuple[PackedState, int, Any, List[int]]] = [
            (initial, 0, None, initial_vector)
        ]
        result = ExplorationResult(
            complete=True,
            states_explored=0,
            events_executed=0,
            max_depth_reached=0,
            group_size=canonicalizer.group_order,
        )
        states_explored = 0
        events_executed = 0
        max_depth_reached = 0
        orbits_collapsed = 0
        started = time.perf_counter()

        while stack:
            state, depth, link, vector = stack.pop()
            state_raw = vector[0]
            states_explored += 1
            if depth > max_depth_reached:
                max_depth_reached = depth
            if emit and not (states_explored & progress_mask):
                telemetry.gauge("explore.visited", len(visited))
                telemetry.gauge("explore.frontier", len(stack))
                telemetry.event(
                    "explore.progress",
                    states=states_explored,
                    frontier=len(stack),
                    visited=len(visited),
                    orbit_hits=orbits_collapsed,
                    depth=depth,
                )
            if suspect(state):
                violation = slow(state)
                if violation is not None:
                    result.violation = violation
                    result.violation_schedule = _unwind(link)
                    result.truncated_by = "violation"
                    break
            expand = [t for t in step_tabs if t[3][state[t[2]]]]
            if not expand:
                # No enabled pid ⟺ all_settled: stuck never ticks.
                continue
            if depth >= max_depth:
                result.truncated_by = "max_depth"
                continue
            budget_exhausted = False
            for (
                pid,
                s,
                off,
                _live_row,
                kind_row,
                arg_row,
                wval_row,
                nxt_row,
                rows_row,
                slot_weights,
            ) in expand:
                si = state[off]
                k = kind_row[si]
                if k == OP_READ:
                    nsi = rows_row[si][state[arg_row[si]]]
                elif k == OP_WRITE or k == OP_LOCAL:
                    nsi = nxt_row[si]
                else:
                    nsi = RAISE_ENTRY
                if nsi < 0:
                    # Poisoned entry: interpret, then rebuild the key vector.
                    child = step_packed(state, s)
                    child_vector = vector_of(child)
                elif k == OP_WRITE:
                    phys = arg_row[si]
                    old = state[phys]
                    new = wval_row[si]
                    child = (
                        state[:phys]
                        + (new,)
                        + state[phys + 1 : off]
                        + (nsi,)
                        + state[off + 1 :]
                    )
                    child_vector = [
                        key_g - slot[si] + slot[nsi] - reg[old] + reg[new]
                        for key_g, slot, reg in zip(
                            vector, slot_weights, by_position[phys]
                        )
                    ]
                else:
                    child = state[:off] + (nsi,) + state[off + 1 :]
                    child_vector = [
                        key_g - slot[si] + slot[nsi]
                        for key_g, slot in zip(vector, slot_weights)
                    ]
                events_executed += 1
                raw = child_vector[0]
                step_link = (link, pid)
                if raw == state_raw:
                    # Inert acceleration, exactly as serial: keep
                    # stepping this pid while it stays inert, watching
                    # its local state (⟺ its packed index — interning
                    # is by value equality) for a repeat.
                    seen_locals = {child[off]}
                    while raw == state_raw and not (
                        halted[s][child[off]] or crashed[s]
                    ):
                        child = step_packed(child, s)
                        events_executed += 1
                        step_link = (step_link, pid)
                        child_vector = vector_of(child)
                        raw = child_vector[0]
                        local = child[off]
                        if raw == state_raw:
                            if local in seen_locals:
                                break
                            seen_locals.add(local)
                    if raw == state_raw:
                        continue
                key = min(child_vector)
                claimed = visited.get(key)
                if claimed is not None:
                    if claimed != raw:
                        orbits_collapsed += 1
                    continue
                if len(visited) >= max_states:
                    result.truncated_by = "max_states"
                    budget_exhausted = True
                    break
                visited[key] = raw
                stack.append((child, depth + 1, step_link, child_vector))
            if budget_exhausted:
                break

        result.states_explored = states_explored
        result.events_executed = events_executed
        result.max_depth_reached = max_depth_reached
        result.orbits_collapsed = orbits_collapsed
        result.complete = result.truncated_by is None
        result.wall_seconds = time.perf_counter() - started
        result.peak_visited = len(visited)
        if emit:
            telemetry.gauge("explore.visited", len(visited))
            telemetry.gauge("explore.frontier", len(stack))
            telemetry.count("explore.events", result.events_executed)
            telemetry.count("explore.orbit_hits", result.orbits_collapsed)
        return result
