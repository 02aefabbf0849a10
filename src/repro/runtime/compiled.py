"""Table-compiled step kernel: packed states, integer transition tables.

The interpreted hot path costs, per event, a ``next_op`` call, an
``isinstance`` dispatch, an ``apply`` call, an ``is_halted`` call, and a
tuple rebuild over heterogeneous values.  For the shipped automata the
whole of that work is a pure function of *which local state the stepping
process is in* and *which register value it reads* — both drawn from
small finite sets.  This module hoists it into tables:

1. :func:`compile_program` interns the initial register values and
   local states, and the tables fill on demand as a walk steps: the
   first step from a local state classifies it (``next_op``, and for a
   write or local step its ``apply`` successor), and the first read of
   a value from it fills that read-row entry.  The tables collapse
   ``next_op`` / ``apply`` / ``is_halted`` into dense integer lists —
   ``kind[s][si]`` (LOCAL / READ / WRITE / HALTED / RAISE, or PENDING
   until classified), ``arg[s][si]`` (physical register index),
   ``write_value[s][si]``, ``next_state[s][si]`` and per-read-state rows
   ``rows[s][si][value_index]`` (PENDING_ENTRY until filled) — so they
   hold only what walks reach.  :meth:`CompiledProgram.close` fills
   everything reachable, for consumers that need the whole tables.

2. A :data:`PackedState` is a flat tuple of small integers — ``m``
   register value indices followed by one local-state index per slot —
   so successor expansion is integer indexing plus a tuple copy instead
   of attribute lookups and ``isinstance`` dispatch per step.  Every
   walk carries each state as one int instead
   (:meth:`CompiledProgram.encode`): the slot fields lowest, each wide
   enough for ``max_local_states`` states, and the register fields above
   them, as wide as the value domain so far.  A successor is the state
   plus a delta (:meth:`CompiledProgram.delta_tables`), the visited set
   holds ints, a retained graph stores the same ints as its nodes, and a
   value that widens the register fields re-encodes the walk (and the
   graph so far) once.  The quotient walk closes the tables first, so
   its layout never widens; beside each int it carries one orbit key
   per group element, moved per step by a row of
   :meth:`CompiledProgram.orbit_delta_tables` at the same index.

3. :class:`CompiledBackend` conforms to the
   :class:`~repro.runtime.backends.ExplorationBackend` protocol and
   mirrors :class:`~repro.runtime.backends.SerialBackend` statement for
   statement over packed states, including ``retain_graph`` recording
   whose :meth:`StateGraph.to_bytes` is byte-identical.

**Overflow to the interpreter.**  Compilation is best-effort, never
load-bearing for correctness:

* If a walk reaches more local states per slot or register values than
  the caps allow, a hook raises while compiling, or the instance's shape
  is unexpected, the backend drops what it has and runs ``SerialBackend``
  on the whole task — bit-identical by definition — and emits
  ``explore.kernel_fallback`` with the reason.  ``result.kernel`` stays
  ``"interpreted"`` in that case so callers can see which kernel
  actually ran.
* A transition whose ``next_op``/``apply``/``is_halted`` raised while
  its entry was filled is marked :data:`OP_RAISE` (or
  :data:`RAISE_ENTRY`); stepping it unpacks the state and re-executes
  the interpreted :func:`~repro.runtime.kernel.step_value`, reproducing
  the genuine exception (the automata are deterministic).
* Invariants are handled by *suspicion tables*: for the stock invariants
  a per-(slot, local-state) fact table, grown with the local states,
  decides suspicion with a few integer lookups, and only suspected
  states are unpacked and handed to the real invariant — so violation
  messages are byte-identical by construction.  In front of it, per-slot
  0/1 flags and a threshold, read inline from the int state, pass only
  the states that may be suspect to the decode.  A fact hook that raises
  sets every flag and makes every later state suspect.  Unknown
  invariants are evaluated on every state over an unpacked
  :class:`~repro.runtime.kernel.StateView` (slow but exact).
"""

from __future__ import annotations

import time
from array import array
from functools import partial
from operator import add
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.obs.telemetry import NULL_TELEMETRY, TelemetrySink
from repro.runtime.backends import ExplorationTask, Invariant, SerialBackend
from repro.runtime.canonical import TrivialCanonicalizer
from repro.runtime.exploration import ExplorationResult
from repro.runtime.kernel import GlobalState, StateView, StepInstance, step_value
from repro.runtime.ops import ReadOp, WriteOp
from repro.types import ProcessId

#: A packed global state: ``m`` register value indices followed by one
#: local-state index per slot, all small ints.  Injective over the
#: interned values and local states by construction (indices are
#: interned by value equality, exactly like the canonicalizer's digest
#: intern).
PackedState = Tuple[int, ...]

# Transition kinds, one per local state per slot.
OP_LOCAL = 0  #: no memory effect; successor in ``next_state``
OP_READ = 1  #: successor row indexed by the read value's index
OP_WRITE = 2  #: writes ``write_value`` to ``arg``; successor in ``next_state``
OP_HALTED = 3  #: no transition; stepping it is a scheduling error
OP_RAISE = 4  #: poison — delegate to the interpreter
OP_PENDING = 5  #: not classified yet — classify, then step

#: Poisoned read-row entry: this (state, value) transition raised when
#: it was filled; delegate to the interpreter to reproduce the exception.
RAISE_ENTRY = -1
#: Read-row entry not filled yet: fill it, then step.
PENDING_ENTRY = -2


class CompileOverflow(Exception):
    """The instance exceeds the compiler's enumerable envelope.

    Raised when a slot's reached local states or the reached register
    values exceed the caps, a value or local state is unhashable, or the
    instance's shape does not match the packed layout — at compile time
    or, since tables fill on demand, while a walk fills them.  The backend responds by falling
    back to the interpreted ``SerialBackend``.
    """


class _Poison(Exception):
    """Internal: a hook raised while materialising a successor state."""


class CompiledProgram:
    """Dense transition tables for one :class:`StepInstance`, filled on
    demand.

    Instances are produced by :func:`compile_program`, which interns only
    the initial values and local states.  Every per-slot table is a
    plain list indexed by local state, grown in place as states are
    reached (so a walk can hoist them into locals once): ``states``,
    ``halted``, ``live`` and ``kind`` are set when a state is interned
    (``kind`` is :data:`OP_PENDING` until the state is classified), the
    rest when it is classified.  A READ row spans the current value
    domain, its unfilled entries :data:`PENDING_ENTRY`.  Stepping
    (:meth:`step_packed`, :meth:`expand_batch`) classifies and fills
    what it needs; :meth:`close` fills everything reachable.
    """

    def __init__(
        self,
        instance: StepInstance,
        slots: Tuple[ProcessId, ...],
        crashed: List[bool],
        m: int,
        max_local_states: int,
        max_domain: int,
    ) -> None:
        nslots = len(slots)
        self.instance = instance
        self.slots = slots
        self.crashed = crashed
        self.m = m
        self.max_local_states = max_local_states
        self.max_domain = max_domain
        self.autos = [instance.automata[pid] for pid in slots]
        self._perms = [instance.permutations[pid] for pid in slots]
        self.values: List[Any] = []
        self.value_index: Dict[Any, int] = {}
        self.states: List[List[Any]] = [[] for _ in range(nslots)]
        self.state_index: List[Dict[Any, int]] = [{} for _ in range(nslots)]
        self.halted: List[List[bool]] = [[] for _ in range(nslots)]
        #: ``live[slot][si]`` ⟺ the slot can step from local state si.
        self.live: List[List[bool]] = [[] for _ in range(nslots)]
        self.kind: List[List[int]] = [[] for _ in range(nslots)]
        self.arg: List[List[int]] = [[] for _ in range(nslots)]
        self.write_value: List[List[int]] = [[] for _ in range(nslots)]
        self.next_state: List[List[int]] = [[] for _ in range(nslots)]
        self.rows: List[List[Optional[List[int]]]] = [[] for _ in range(nslots)]
        self.initial_packed: PackedState = ()
        # (slot, si) per READ state, in classification order, and its op.
        self._read_sites: List[Tuple[int, int]] = []
        self._read_op: List[Dict[int, ReadOp]] = [{} for _ in range(nslots)]
        self._watchers: List[Callable[[int, int], None]] = []
        self._deltas: Optional[List[List[List[Optional[int]]]]] = None
        self._at: List[List[int]] = []
        #: (pid, slot, packed offset) in the instance's scheduling order.
        self.step_order: Tuple[Tuple[ProcessId, int, int], ...] = tuple(
            (pid, instance.slot_of[pid], m + instance.slot_of[pid])
            for pid in instance.pid_order
        )
        # Int layout: packed position i is the bit field of width
        # field_mask[i].bit_length() at field_shift[i].  Slot fields are
        # lowest, each wide enough for max_local_states states, so a
        # reached state always fits; register fields sit above them, as
        # wide as the current value domain (one value needs no bits).
        self.slot_bits = max(max_local_states - 1, 0).bit_length()
        self.value_bits = -1
        self._layout()

    def _layout(self) -> None:
        """Size the register fields to the value domain; rebuild the
        delta tables when they widen."""
        value_bits = max(len(self.values) - 1, 0).bit_length()
        if value_bits == self.value_bits:
            return
        nslots = len(self.slots)
        base = self.slot_bits * nslots
        self.value_bits = value_bits
        self.field_shift: Tuple[int, ...] = tuple(
            base + value_bits * i for i in range(self.m)
        ) + tuple(self.slot_bits * s for s in range(nslots))
        self.field_mask: Tuple[int, ...] = (
            ((1 << value_bits) - 1,) * self.m
            + ((1 << self.slot_bits) - 1,) * nslots
        )
        self._fields = tuple(zip(self.field_shift, self.field_mask))
        self.value_mask = (1 << value_bits) - 1
        #: Total width; ``state >> state_bits`` is 0 for every int state.
        self.state_bits = base + value_bits * self.m
        if self._deltas is not None:
            self._sync_all()

    # -- growing the tables --------------------------------------------

    def _intern(self, value: Any) -> int:
        try:
            vi = self.value_index.get(value)
        except TypeError as error:
            raise CompileOverflow(f"unhashable register value {value!r}") from error
        if vi is None:
            if len(self.values) >= self.max_domain:
                raise CompileOverflow(
                    f"register value domain exceeds {self.max_domain} values"
                )
            vi = len(self.values)
            self.value_index[value] = vi
            self.values.append(value)
            rows = self.rows
            for slot, si in self._read_sites:
                rows[slot][si].append(PENDING_ENTRY)  # type: ignore[union-attr]
            self._layout()
        return vi

    def _add_state(self, slot: int, local: Any) -> int:
        """``local``'s index in ``slot``'s table, interned if new."""
        try:
            si = self.state_index[slot].get(local)
        except TypeError as error:
            raise CompileOverflow(
                f"unhashable local state for slot {slot}"
            ) from error
        return self._new_state(slot, local) if si is None else si

    def _new_state(self, slot: int, local: Any) -> int:
        """Intern ``local``, which ``slot``'s table does not hold yet."""
        states = self.states[slot]
        if len(states) >= self.max_local_states:
            raise CompileOverflow(
                f"slot {slot} local-state space exceeds"
                f" {self.max_local_states} states"
            )
        try:
            is_halted = bool(self.autos[slot].is_halted(local))
        except CompileOverflow:
            raise
        except Exception as error:
            raise _Poison from error
        si = len(states)
        self.state_index[slot][local] = si
        states.append(local)
        self.halted[slot].append(is_halted)
        self.live[slot].append(not (is_halted or self.crashed[slot]))
        self.kind[slot].append(OP_HALTED if is_halted else OP_PENDING)
        self.arg[slot].append(0)
        self.write_value[slot].append(0)
        self.next_state[slot].append(0)
        self.rows[slot].append(None)
        if self._deltas is not None:
            self._deltas[slot].append([None])
            self._at[slot].append(self.state_bits)
        for watcher in self._watchers:
            watcher(slot, si)
        return si

    def classify(self, slot: int, si: int) -> int:
        """The kind of local state ``si`` of ``slot``, classifying it
        first if it is still :data:`OP_PENDING`."""
        kind = self.kind[slot]
        k = kind[si]
        if k != OP_PENDING:
            return k
        local = self.states[slot][si]
        auto = self.autos[slot]
        # A raising hook or an out-of-range view index (which raises
        # ProtocolError at runtime) poisons the state: the interpreter
        # reproduces the exception.
        k = OP_RAISE
        try:
            op = auto.next_op(local)
        except Exception:
            op = None
        else:
            if isinstance(op, ReadOp):
                if 0 <= op.index < self.m:
                    self.arg[slot][si] = self._perms[slot][op.index]
                    self.rows[slot][si] = [PENDING_ENTRY] * len(self.values)
                    self._read_sites.append((slot, si))
                    self._read_op[slot][si] = op
                    k = OP_READ
            else:
                # A write, or any other operation: no memory effect
                # beyond the write, read result None.
                write = isinstance(op, WriteOp)
                if not write or 0 <= op.index < self.m:
                    if write:
                        self.write_value[slot][si] = self._intern(op.value)
                        self.arg[slot][si] = self._perms[slot][op.index]
                    try:
                        self.next_state[slot][si] = self._add_state(
                            slot, auto.apply(local, op, None)
                        )
                        k = OP_WRITE if write else OP_LOCAL
                    except CompileOverflow:
                        raise
                    except Exception:
                        pass
        kind[si] = k
        if self._deltas is not None:
            self._sync(slot, si)
        return k

    def _fill(self, slot: int, si: int, vis: Iterable[int]) -> None:
        """Fill the pending entries ``vis`` of READ row ``rows[slot][si]``;
        a hook that raises on the way poisons its entry."""
        row = self.rows[slot][si]
        assert row is not None
        local = self.states[slot][si]
        op = self._read_op[slot][si]
        apply = self.autos[slot].apply
        known = self.state_index[slot].get
        values = self.values
        for vi in vis:
            if row[vi] != PENDING_ENTRY:
                continue
            try:
                child = apply(local, op, values[vi])
                try:
                    nsi = known(child)
                except TypeError:  # unhashable: _add_state raises the overflow
                    nsi = self._add_state(slot, child)
                if nsi is None:
                    nsi = self._new_state(slot, child)
            except CompileOverflow:
                raise
            except Exception:
                nsi = RAISE_ENTRY
            row[vi] = nsi
        if self._deltas is not None:
            deltas = self._deltas[slot][si]
            own = self.field_shift[self.m + slot]
            for vi in vis:
                if row[vi] >= 0:
                    deltas[vi] = (row[vi] - si) << own

    def close(self) -> None:
        """Fill every entry reachable from the known local states.

        A worklist over the tables' append-only logs (local states, read
        sites, values), so each state is classified and each (read site,
        value) entry filled once.  Invariant: every read site before
        ``site_at`` has its entries below ``value_at`` filled.  Needed
        where a consumer sees the whole tables at once: the quotient
        walk's orbit weights rank every digest, and :meth:`pack` encodes
        a state the tables have not met yet.
        """
        sites = self._read_sites
        values = self.values
        classify = self.classify
        fill = self._fill
        state_at = [0] * len(self.slots)
        site_at = 0
        value_at = len(values)
        while True:
            for slot, kinds in enumerate(self.kind):
                si = state_at[slot]
                while si < len(kinds):
                    if kinds[si] == OP_PENDING:
                        classify(slot, si)
                    si += 1
                state_at[slot] = si
            if site_at < len(sites):
                # Filling adds local states, never sites or values.
                known = range(value_at)
                for slot, si in sites[site_at:]:
                    fill(slot, si, known)
                site_at = len(sites)
            elif value_at < len(values):
                new = range(value_at, len(values))
                for slot, si in sites[:site_at]:
                    fill(slot, si, new)
                value_at = len(values)
            else:
                return

    def watch(self, watcher: Callable[[int, int], None]) -> None:
        """Call ``watcher(slot, si)`` for every local state: the known
        ones now, each later one as it is interned."""
        self._watchers.append(watcher)
        for slot, states in enumerate(self.states):
            for si in range(len(states)):
                watcher(slot, si)

    # -- conversions ---------------------------------------------------

    def pack(self, state: GlobalState) -> PackedState:
        """Pack a kernel value state; raises if outside the closure.

        A state no walk has reached yet is found by closing the tables.
        """
        registers, locals_part = state

        def indices() -> PackedState:
            return tuple(self.value_index[v] for v in registers) + tuple(
                self.state_index[s][entry[1]]
                for s, entry in enumerate(locals_part)
            )

        try:
            return indices()
        except KeyError:
            self.close()
            return indices()

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
        """The packed state an int state denotes (inverse of :meth:`encode`).

        The walks decode a state only when its suspicion flags reach the
        invariant's threshold, and for a poisoned entry.
        """
        return tuple([state >> shift & mask for shift, mask in self._fields])

    def recode(self, state: int, value_bits: int) -> int:
        """An int state encoded when register fields were ``value_bits``
        wide, in the current layout (slot fields never move)."""
        base = self.slot_bits * len(self.slots)
        registers = state >> base
        mask = (1 << value_bits) - 1
        out = state & ((1 << base) - 1)
        for shift in self.field_shift[: self.m]:
            out |= (registers & mask) << shift
            registers >>= value_bits
        return out

    def delta_tables(
        self,
    ) -> Tuple[List[List[List[Optional[int]]]], List[List[int]]]:
        """Per slot and local state, the int-state change of its step.

        Returns ``(deltas, at)``.  The step of slot ``s`` from local
        state ``si`` turns int state ``x`` into ``x + d`` with::

            d = deltas[s][si][(x >> at[s][si]) & self.value_mask]

        A READ row is indexed by the read register's value, a WRITE row
        by the overwritten register's value (the write's register delta
        plus the slot's); both span every index the register field can
        hold.  A LOCAL row has one entry, selected by
        ``at == state_bits``.  ``d == 0`` is exactly the inert step
        (child == state: encoding is injective).  ``None`` marks an
        entry the tables cannot take yet or at all — pending, poisoned,
        OP_RAISE or OP_HALTED — which goes through :meth:`step_packed`.

        The tables are the program's own and stay current: filling an
        entry updates its delta, a new local state appends a row, and a
        widening of the register fields rebuilds them in place.
        """
        if self._deltas is None:
            self._deltas = [[[None]] * len(states) for states in self.states]
            self._at = [[0] * len(states) for states in self.states]
            self._sync_all()
        return self._deltas, self._at

    def _sync_all(self) -> None:
        assert self._deltas is not None
        for slot, deltas in enumerate(self._deltas):
            for si in range(len(deltas)):
                self._sync(slot, si)

    def _sync(self, slot: int, si: int) -> None:
        """Recompute one delta row from the transition tables."""
        assert self._deltas is not None
        k = self.kind[slot][si]
        shift = self.field_shift
        own = shift[self.m + slot]
        width = self.value_mask + 1
        at = self.state_bits
        if k == OP_READ:
            row: List[Optional[int]] = [
                (nsi - si) << own if nsi >= 0 else None
                for nsi in self.rows[slot][si]  # type: ignore[union-attr]
            ]
            row.extend([None] * (width - len(row)))
            at = shift[self.arg[slot][si]]
        elif k == OP_WRITE:
            at = shift[self.arg[slot][si]]
            step = (self.next_state[slot][si] - si) << own
            new = self.write_value[slot][si]
            row = [step + ((new - old) << at) for old in range(width)]
        elif k == OP_LOCAL:
            row = [(self.next_state[slot][si] - si) << own]
        else:
            row = [None]
        self._deltas[slot][si] = row
        self._at[slot][si] = at

    def orbit_delta_tables(
        self, by_position: Sequence[Sequence[Sequence[int]]]
    ) -> List[List[List[Optional[Tuple[int, ...]]]]]:
        """Per slot and local state, the orbit-key change of its step.

        ``by_position`` is :attr:`PackedOrbitWeights.by_position
        <repro.runtime.canonical.PackedOrbitWeights>` over these tables
        as they stand, which must be closed.  The rows are indexed
        exactly like :meth:`delta_tables`: the step of slot ``s`` from
        local state ``si`` moves the key vector of int state ``x`` (one
        int per group element) by::

            vd = rows[s][si][(x >> at[s][si]) & self.value_mask]

        element by element, where ``at`` is :meth:`delta_tables`'s.
        ``None`` marks the entries whose delta is ``None`` and the WRITE
        entries no register holds.  A snapshot, not kept current; equal
        entries share one tuple, and WRITE rows that move the slot's
        keys alike and write the same value to the same register share
        one row.
        """
        m = self.m
        width = self.value_mask + 1
        nvalues = len(self.values)
        interned: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        write_rows: Dict[Any, List[Optional[Tuple[int, ...]]]] = {}

        def change(
            tables: Sequence[Sequence[int]], old: int, new: int
        ) -> List[int]:
            return [table[new] - table[old] for table in tables]

        def intern(vd: Iterable[int]) -> Tuple[int, ...]:
            key = tuple(vd)
            return interned.setdefault(key, key)

        out: List[List[List[Optional[Tuple[int, ...]]]]] = []
        for slot, kinds in enumerate(self.kind):
            own = by_position[m + slot]
            slot_rows: List[List[Optional[Tuple[int, ...]]]] = []
            for si, k in enumerate(kinds):
                row: List[Optional[Tuple[int, ...]]]
                if k == OP_READ:
                    row = [
                        intern(change(own, si, nsi)) if nsi >= 0 else None
                        for nsi in self.rows[slot][si]  # type: ignore[union-attr]
                    ]
                    row.extend([None] * (width - len(row)))
                elif k == OP_WRITE:
                    step = intern(change(own, si, self.next_state[slot][si]))
                    phys = self.arg[slot][si]
                    new = self.write_value[slot][si]
                    shared = write_rows.get((step, phys, new))
                    if shared is None:
                        reg = by_position[phys]
                        shared = [
                            intern(map(add, step, change(reg, old, new)))
                            for old in range(nvalues)
                        ]
                        shared.extend([None] * (width - nvalues))
                        write_rows[step, phys, new] = shared
                    row = shared
                elif k == OP_LOCAL:
                    row = [intern(change(own, si, self.next_state[slot][si]))]
                else:
                    row = [None]
                slot_rows.append(row)
            out.append(slot_rows)
        return out

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

        Table-driven for LOCAL/READ/WRITE, classifying the local state
        or filling the read entry first if the tables lack it; poisoned
        entries and OP_HALTED delegate to the interpreter, which
        reproduces the interpreted result or exception exactly.
        """
        off = self.m + slot
        si = packed[off]
        k = self.kind[slot][si]
        if k == OP_PENDING:
            k = self.classify(slot, si)
        if k == OP_READ:
            row = self.rows[slot][si]
            assert row is not None
            vi = packed[self.arg[slot][si]]
            if row[vi] == PENDING_ENTRY:
                self._fill(slot, si, (vi,))
            nsi = row[vi]
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
        crashed).  Entries the tables lack go through
        :meth:`step_packed`, which fills them, and poisoned entries
        delegate to the interpreter exactly as there, so genuine hook
        exceptions propagate to the caller unchanged.
        """
        m = self.m
        nslots = len(self.slots)
        stride = m + nslots
        kind = self.kind
        arg = self.arg
        wval = self.write_value
        nxt = self.next_state
        rows = self.rows
        live = self.live
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
                # Pending or poisoned entry: step_packed fills it, or
                # interprets, reproducing the genuine result/exception.
                state = tuple(flat[base : base + stride])
                child = self.step_packed(state, s)
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
    """A :class:`CompiledProgram` for the walks from ``initial``.

    Interns the initial register values, ``domain_hint`` and each slot's
    initial local state, and nothing else: the tables fill on demand as
    walks step (or all at once through :meth:`CompiledProgram.close`).

    ``domain_hint`` seeds the value domain (a
    :meth:`~repro.problems.spec.ProblemSpec.value_domain` declaration);
    a superset is harmless, a subset is completed as writes are
    classified.  With the whole domain up front the int layout never
    widens.

    ``max_local_states`` (per slot) and ``max_domain`` cap what a walk
    may reach: filling past them raises :class:`CompileOverflow`, as
    does an instance whose shape defeats packing; callers fall back to
    the interpreter.
    """
    registers, locals_part = initial
    slots = tuple(entry[0] for entry in locals_part)
    for pid, slot in instance.slot_of.items():
        if slot >= len(slots) or slots[slot] != pid:
            raise CompileOverflow("slot layout does not match the instance")
    program = CompiledProgram(
        instance,
        slots,
        [bool(entry[3]) for entry in locals_part],
        len(registers),
        max_local_states,
        max_domain,
    )
    for value in registers:
        program._intern(value)
    for value in domain_hint:
        program._intern(value)
    initial_sis: List[int] = []
    for slot, entry in enumerate(locals_part):
        try:
            si = program._add_state(slot, entry[1])
        except _Poison as error:
            raise CompileOverflow(
                f"is_halted raised on slot {slot}'s initial state"
            ) from error
        if program.halted[slot][si] != bool(entry[2]):
            raise CompileOverflow(
                f"slot {slot}: initial halted flag disagrees with is_halted"
            )
        initial_sis.append(si)
    program.initial_packed = tuple(
        program.value_index[v] for v in registers
    ) + tuple(initial_sis)
    return program


# -- invariant compilation ---------------------------------------------
#
# A *suspect function* maps a packed state to "might the invariant
# return non-None here?".  It must never report False on a state the
# interpreted invariant would flag (false negatives are unsound); a
# False positive merely costs one unpack + real-invariant call that
# returns None.  The fact tables below are exact on every local state
# the program has interned, and grow with it, so both directions hold;
# a hook failure while computing a fact poisons the tables and the
# checker degrades to evaluating the real invariant on every state
# from then on (slow but trivially exact).
#
# In front of the suspect function sit per-slot 0/1 flags and a
# threshold (:class:`_Suspect`): a state whose slots' flags sum to less
# than the threshold cannot be suspect, so the walks read the flags
# inline from their int states and decode only the states that reach
# it.

_SKIP = object()  # slot not decided (not halted, or output is None)


def _always_suspect(_packed: PackedState) -> bool:
    """Generic fallback: treat every state as suspect (evaluate the
    real invariant on all of them — slow but trivially exact)."""
    return True


def _never_suspect(_packed: PackedState) -> bool:
    return False


def _decided(value: Any) -> bool:
    return value is not _SKIP


class _Flags:
    """Per-slot 0/1 suspicion flags, grown with the program.

    ``rows[slot][si]`` starts at 0 for every local state the program
    interns; the :class:`_Facts` that feed these flags then set it to 1
    when their fact marks the state.  Rows grow and change in place, so
    a walk can hoist them.
    """

    __slots__ = ("rows",)

    def __init__(self, program: CompiledProgram) -> None:
        self.rows: List[List[int]] = [[] for _ in program.slots]
        # Registered before any fact that feeds these flags, so a new
        # state's flag exists when its facts are computed.
        program.watch(self._add)

    def _add(self, slot: int, si: int) -> None:
        self.rows[slot].append(0)


class _Facts:
    """Per-(slot, si) facts about local states, grown with the program.

    ``tables[slot][si]`` is ``fact(slot, si)`` for every local state the
    program has interned (:meth:`CompiledProgram.watch`), and the flag
    of that state in ``flags`` is set when ``flag(fact)`` holds.  A fact
    that raises poisons them: ``poisoned`` is set and every flag in
    ``flags``, now and later, reads 1.  A suspect built on them flags
    every state from then on — the walks' inline flag test passes and
    the suspect functions test ``poisoned`` — so the real invariant
    raises or reports exactly where the interpreted one does, and the
    failure never surfaces at the step that reached the state.
    """

    __slots__ = ("tables", "poisoned", "_fact", "_flag", "_flags")

    def __init__(
        self,
        program: CompiledProgram,
        fact: Callable[[int, int], Any],
        flag: Callable[[Any], Any],
        flags: _Flags,
    ) -> None:
        self.tables: List[List[Any]] = [[] for _ in program.slots]
        self.poisoned = False
        self._fact = fact
        self._flag = flag
        self._flags = flags.rows
        program.watch(self._add)

    def _add(self, slot: int, si: int) -> None:
        value, marked = 1, True
        if not self.poisoned:
            try:
                value = self._fact(slot, si)
                marked = self._flag(value)
            except Exception:
                self.poisoned = True
                for row in self._flags:
                    row[:] = [1] * len(row)
        if marked:
            self._flags[slot][si] = 1
        self.tables[slot].append(value)


def _output(program: CompiledProgram, slot: int, si: int) -> Any:
    """The decided non-None output of local state ``si``, else ``_SKIP``.

    Raises if the ``output`` hook raises or the output is unhashable,
    poisoning the facts built on it (the stock invariants build sets of
    outputs, so an unhashable one makes the *interpreted* invariant
    raise — evaluating it reproduces that).
    """
    if not program.halted[slot][si]:
        return _SKIP
    out = program.autos[slot].output(program.states[slot][si])
    hash(out)
    return _SKIP if out is None else out


class _Suspect:
    """A compiled invariant's suspicion test, in two stages.

    ``flags.rows[slot][si]`` is 1 on every local state that can take
    part in a violation, and a state whose slots' flags sum to less
    than ``threshold`` is never suspect: the walks read the flags from
    their int states by shift and mask and decode only the states that
    reach the threshold.  ``exact`` is the suspect function proper, on
    the decoded packed state.  Poisoned facts set every flag, and no
    threshold exceeds the slot count (bar :func:`_never_suspect`'s,
    which has no facts), so a poisoned suspect decodes every state.
    """

    __slots__ = ("flags", "threshold", "exact")

    def __init__(
        self,
        flags: _Flags,
        threshold: int,
        exact: Callable[[PackedState], bool],
    ) -> None:
        self.flags = flags
        self.threshold = threshold
        self.exact = exact


def _mutex_suspect(program: CompiledProgram, flags: _Flags) -> Optional[_Suspect]:
    """Suspect when ≥ 2 non-halted processes sit in the critical section.

    Flags: in the critical section; threshold 2.
    """
    in_cs = [getattr(auto, "in_critical_section", None) for auto in program.autos]
    if any(hook is None for hook in in_cs):
        return None

    def inside(slot: int, si: int) -> int:
        if program.halted[slot][si]:
            return 0
        return 1 if in_cs[slot](program.states[slot][si]) else 0

    facts = _Facts(program, inside, bool, flags)
    m = program.m
    offs = [(m + slot, row) for slot, row in enumerate(facts.tables)]

    def suspect(packed: PackedState) -> bool:
        if facts.poisoned:
            return True
        count = 0
        for off, row in offs:
            count += row[packed[off]]
        return count > 1

    return _Suspect(flags, min(2, len(offs)), suspect)


def _agreement_suspect(
    program: CompiledProgram, flags: _Flags
) -> Optional[_Suspect]:
    """Suspect when two decided outputs are distinct (set semantics).

    Flags: decided; threshold 2.
    """
    facts = _Facts(program, partial(_output, program), _decided, flags)
    m = program.m
    offs = [(m + slot, row) for slot, row in enumerate(facts.tables)]

    def suspect(packed: PackedState) -> bool:
        if facts.poisoned:
            return True
        decided = [
            v for off, row in offs if (v := row[packed[off]]) is not _SKIP
        ]
        return len(decided) > 1 and len(set(decided)) > 1

    return _Suspect(flags, min(2, len(offs)), suspect)


def _validity_suspect(
    program: CompiledProgram, flags: _Flags
) -> Optional[_Suspect]:
    """Suspect when a decided output is not one of the instance inputs.

    Flags: decided an illegal value; threshold 1.
    """
    try:
        legal = set(program.instance.inputs.values())
    except Exception:
        return None

    def illegal(slot: int, si: int) -> bool:
        v = _output(program, slot, si)
        return v is not _SKIP and v not in legal

    facts = _Facts(program, illegal, bool, flags)
    m = program.m
    offs = [(m + slot, row) for slot, row in enumerate(facts.tables)]

    def suspect(packed: PackedState) -> bool:
        if facts.poisoned:
            return True
        return any(row[packed[off]] for off, row in offs)

    return _Suspect(flags, 1, suspect)


def _unique_names_suspect(
    program: CompiledProgram, flags: _Flags
) -> Optional[_Suspect]:
    """Suspect on duplicate names or a name outside ``1..n``.

    Flags: decided; threshold 1 (one name can be out of range).
    """
    n = len(program.instance.inputs)

    def name(slot: int, si: int) -> Any:
        v = _output(program, slot, si)
        # A non-comparable name poisons the facts: the interpreted
        # invariant's range check raises on such states, and only
        # evaluating it reproduces that.
        return v if v is _SKIP else (v, not 1 <= v <= n)

    facts = _Facts(program, name, _decided, flags)
    m = program.m
    offs = [(m + slot, row) for slot, row in enumerate(facts.tables)]

    def suspect(packed: PackedState) -> bool:
        if facts.poisoned:
            return True
        names: List[Any] = []
        for off, row in offs:
            fact = row[packed[off]]
            if fact is _SKIP:
                continue
            v, bad = fact
            if bad:
                return True
            names.append(v)
        return len(names) > 1 and len(set(names)) != len(names)

    return _Suspect(flags, 1, suspect)


def _compile_suspect(
    invariant: Invariant,
    program: CompiledProgram,
    flags: Optional[_Flags] = None,
) -> Optional[_Suspect]:
    """Suspect for a known invariant, or None to go generic.

    The subs of a conjunction share one :class:`_Flags`, so its flags
    are the OR of theirs, and its threshold is their smallest.
    """
    from repro.runtime import exploration as _exploration

    try:
        from repro.verify.runner import _no_invariant
    except ImportError:  # pragma: no cover - verify layer always ships
        _no_invariant = None
    if flags is None:
        flags = _Flags(program)
    never = len(program.slots) + 1  # no flag sum reaches it
    if _no_invariant is not None and invariant is _no_invariant:
        return _Suspect(flags, never, _never_suspect)
    if invariant is _exploration.mutual_exclusion_invariant:
        return _mutex_suspect(program, flags)
    if invariant is _exploration.agreement_invariant:
        return _agreement_suspect(program, flags)
    if invariant is _exploration.validity_invariant:
        return _validity_suspect(program, flags)
    if invariant is _exploration.unique_names_invariant:
        return _unique_names_suspect(program, flags)
    if isinstance(invariant, _exploration._ConjoinedInvariant):
        subs = [
            _compile_suspect(sub, program, flags) for sub in invariant.invariants
        ]
        if any(sub is None for sub in subs):
            return None
        exacts = [sub.exact for sub in subs]  # type: ignore[union-attr]

        def conjoined(packed: PackedState) -> bool:
            for exact in exacts:
                if exact(packed):
                    return True
            return False

        threshold = min(
            (sub.threshold for sub in subs),  # type: ignore[union-attr]
            default=never,
        )
        return _Suspect(flags, threshold, conjoined)
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
    exact = suspect.exact

    def fast(packed: PackedState) -> Optional[str]:
        if exact(packed):
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


def _fill_step(
    program: CompiledProgram,
    state: int,
    slot: int,
    si: int,
    value_mask: int,
    visited: Union[Set[int], Dict[int, int]],
    stack: List[Tuple[Any, ...]],
    nodes: Optional[List[int]] = None,
) -> Tuple[int, int]:
    """The int walks' slow path: fill the entry of ``slot``'s step from
    int state ``state`` (local state ``si``), then step it.

    ``value_mask`` is the walk's layout.  If the fill interned a value
    that widened the register fields, the walk is re-encoded in place,
    once: its visited set (or ``int -> ordinal`` dict), the state each
    stack frame starts with and, when retaining, the graph's node list
    ``nodes``.  Returns ``state`` and the step's delta, both in the
    program's current layout; an entry that stays poisoned goes through
    :meth:`CompiledProgram.step_packed`, which interprets it.
    """
    if program.classify(slot, si) == OP_READ:
        vi = (state >> program.field_shift[program.arg[slot][si]]) & value_mask
        program._fill(slot, si, (vi,))
    if program.value_mask != value_mask:
        old = value_mask.bit_length()
        recode = program.recode
        if isinstance(visited, dict):
            moved: Any = [(recode(x, old), o) for x, o in visited.items()]
        else:
            moved = [recode(x, old) for x in visited]
        visited.clear()
        visited.update(moved)
        stack[:] = [(recode(frame[0], old),) + frame[1:] for frame in stack]
        if nodes is not None:
            nodes[:] = [recode(x, old) for x in nodes]
        state = recode(state, old)
    deltas, at = program.delta_tables()
    delta = deltas[slot][si][(state >> at[slot][si]) & program.value_mask]
    if delta is None:
        child = program.step_packed(program.decode(state), slot)
        delta = program.encode(child) - state
    return state, delta


def _reason(error: Exception) -> str:
    """A fallback's reason: a cap's message, else the exception's type
    and message."""
    if isinstance(error, CompileOverflow):
        return str(error)
    return f"{type(error).__name__}: {error}"


def _fall_back(
    task: ExplorationTask, reason: str, telemetry: TelemetrySink
) -> ExplorationResult:
    """Run the interpreted backend on the whole task, naming why."""
    if telemetry.enabled:
        telemetry.event("explore.kernel_fallback", reason=reason)
    return SerialBackend().run(task, telemetry=telemetry)


class CompiledBackend:
    """Serial DFS over packed states; bit-identical to ``SerialBackend``.

    The tables fill on demand as the walk steps, except for the quotient
    walk, which closes them before it starts.  Failures of any kind
    while compiling, and a walk that fills the tables past their caps,
    fall back to the interpreted backend on the whole task (the event
    ``explore.kernel_fallback`` names the reason), so ``run`` is total
    over every task the serial backend accepts.  ``result.kernel``
    records which kernel actually ran ("compiled" only when the
    table-driven walk did the work).
    """

    name = "compiled"
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
            return _fall_back(
                task, "retain_graph needs the trivial canonicalizer", telemetry
            )
        try:
            with telemetry.phase("explore.compile"):
                program = compile_program(
                    task.instance,
                    task.initial,
                    domain_hint=self.domain_hint,
                    max_local_states=self.max_local_states,
                    max_domain=self.max_domain,
                )
                tables = None
                if not trivial:
                    # The quotient walk's integer keys rank every digest
                    # in byte order, so it needs the whole tables.
                    program.close()
                    tables = task.canonicalizer.packed_digest_tables(
                        program.values,
                        program.states,
                        program.halted,
                        program.crashed,
                    )
                suspect = _compile_suspect(task.invariant, program)
        except Exception as error:
            return _fall_back(task, _reason(error), telemetry)
        invariant = task.invariant
        instance = task.instance
        unpack = program.unpack

        def slow(packed: PackedState) -> Optional[str]:
            return invariant(StateView(instance, unpack(packed)))

        if suspect is None:
            # Unknown invariant: evaluate it on every state.
            suspect = _Suspect(_Flags(program), 0, _always_suspect)
        try:
            if not trivial:
                result = self._run_general(
                    task, program, suspect, slow, tables, telemetry
                )
            elif (
                len(program.slots) == 2
                and not task.retain_graph
                and suspect.threshold == 2
            ):
                result = self._run_trivial_two(
                    task, program, suspect, slow, telemetry
                )
            else:
                result = self._run_trivial(
                    task, program, suspect, slow, telemetry
                )
        except CompileOverflow as error:
            # The walk reached past the caps: drop it and let the
            # interpreter walk the whole task.
            return _fall_back(task, _reason(error), telemetry)
        result.kernel = "compiled"
        return result

    # The walks below mirror SerialBackend.run statement for
    # statement; every counter update, telemetry emission, budget check
    # and recorder call happens at the same point in the same order.
    # Deviations are all of the form "equivalent predicate over packed
    # states" and are individually justified in comments.

    def _run_trivial_two(
        self,
        task: ExplorationTask,
        program: CompiledProgram,
        suspect: _Suspect,
        slow: Callable[[PackedState], Optional[str]],
        telemetry: TelemetrySink,
    ) -> ExplorationResult:
        """The two-process trivial walk, unrolled per pid, over int states.

        :meth:`_run_trivial` with two slots and no graph, its per-pid
        loop unrolled — every check happens at the same point in the
        same order, over the same int states (the layout of
        :meth:`CompiledProgram.encode`) and delta tables — and with a
        visited set instead of an ``int -> ordinal`` dict.  Its inline
        flag test is an ``and`` of the two slots' flags, which is exactly
        the suspect's threshold of 2.  A state is decoded to its packed
        tuple only when it passes, and for a poisoned entry.  An entry
        the tables lack (a ``None`` delta) goes through
        :func:`_fill_step`, which fills it; the tables are the program's
        own, so they stay current, and the one local that can go stale,
        ``value_mask``, is reloaded after it.

        Every plain (``retain_graph=False``) trivial walk of a two-slot
        instance under a threshold-2 suspect (mutual exclusion,
        agreement) runs here, e.g. two-process mutex explored with
        ``reduction="none"``: on mutex m=9 it beats the generic loop by
        more than 15%.  Under any other threshold the ``and`` would
        decode states the threshold rules out, or miss ones it lets
        through, so those walks run :meth:`_run_trivial`, which tests
        the sum.  ``verify`` retains graphs and so runs
        :meth:`_run_trivial`, and the three-process instances have three
        slots.
        """
        max_states = task.max_states
        max_depth = task.max_depth
        emit = telemetry.enabled
        progress_mask = self.progress_interval - 1
        decode = program.decode
        value_mask = program.value_mask

        (pid_a, s_a, off_a), (pid_b, s_b, off_b) = program.step_order
        shift_a = program.field_shift[off_a]
        shift_b = program.field_shift[off_b]
        mask_a = program.field_mask[off_a]
        mask_b = program.field_mask[off_b]
        live_a, live_b = program.live[s_a], program.live[s_b]
        deltas, at = program.delta_tables()
        deltas_a, deltas_b = deltas[s_a], deltas[s_b]
        at_a, at_b = at[s_a], at[s_b]
        # Two 0/1 flags reach the threshold of 2 exactly when both are set.
        cs_a, cs_b = suspect.flags.rows[s_a], suspect.flags.rows[s_b]
        exact = suspect.exact

        initial = program.encode(program.initial_packed)
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
                violation = slow(packed) if exact(packed) else None
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
                    state, delta = _fill_step(
                        program, state, s_a, si_a, value_mask, visited, stack
                    )
                    value_mask = program.value_mask
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
                    state, delta = _fill_step(
                        program, state, s_b, si_b, value_mask, visited, stack
                    )
                    value_mask = program.value_mask
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
        suspect: _Suspect,
        slow: Callable[[PackedState], Optional[str]],
        telemetry: TelemetrySink,
    ) -> ExplorationResult:
        """The trivial walk over int states, any number of slots, with or
        without a retained graph.

        Each state is one int (:meth:`CompiledProgram.encode`) and each
        successor the state plus a delta from
        :meth:`CompiledProgram.delta_tables`: a zero delta is the inert
        self-loop, a ``None`` one an entry the tables lack, which
        :func:`_fill_step` fills.  The visited dict maps each int to its
        ordinal; when retaining it is the graph builder's, the node list
        holds the same ints, and the walk appends nodes and edges to the
        builder's arrays in place.  A register-field widening re-encodes
        the dict, the stack and the node list once, and the graph takes
        the program's layout as it stands when the walk ends.  A state is
        decoded to its packed tuple only when its slots' suspicion flags,
        read inline, reach the suspect's threshold, and for a poisoned
        entry.

        Runs every trivial walk :meth:`_run_trivial_two` does not: all
        of ``verify`` (two slots, retaining), plain two-slot walks under
        a threshold other than 2 and the walks of three or more slots.
        """
        max_states = task.max_states
        max_depth = task.max_depth
        emit = telemetry.enabled
        progress_mask = self.progress_interval - 1
        decode = program.decode
        value_mask = program.value_mask
        shift, mask = program.field_shift, program.field_mask

        deltas, at = program.delta_tables()
        # One bundle per pid in scheduling order: the slot's field and
        # its per-slot tables, which grow in place as the walk fills
        # them.  live[si] ⟺ the slot can step.
        steps = tuple(
            (pid, s, shift[off], mask[off], program.live[s], deltas[s], at[s])
            for pid, s, off in program.step_order
        )
        # Each slot's field and suspicion flags; the flags grow in place.
        flag_fields = tuple(
            (shift[off], mask[off], suspect.flags.rows[s])
            for _pid, s, off in program.step_order
        )
        threshold = suspect.threshold
        exact = suspect.exact

        initial = program.encode(program.initial_packed)
        # Under the trivial canonicalizer a raw key is the content
        # digest of the concrete state, so raw equality is state
        # equality — int states (injective: indices are interned by
        # value) are an equivalent, cheaper dedup key.  Each maps to its
        # ordinal.
        builder = None
        nodes: Optional[List[int]] = None
        visited: Dict[int, int] = {initial: 0}
        if task.retain_graph:
            from repro.verify.graph import GraphBuilder

            # Its slot entries and layout are set after the walk, from
            # the tables the walk filled.
            builder = GraphBuilder(program.values, [], initial, (shift, mask))
            visited = builder.ordinal_of
            nodes = builder.packed
            nodes_append = nodes.append
            opened_append = builder.opened.append
            opened_at_append = builder.opened_at.append
            edge_slot_append = builder.edge_slot.append
            edge_dst = builder.edge_dst
            edge_dst_append = edge_dst.append
        stack: List[Tuple[int, int, Any, int]] = [(initial, 0, None, 0)]
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
            state, depth, link, ordinal = pop()
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
            hits = 0
            for field, width, flags in flag_fields:
                hits += flags[state >> field & width]
            if hits >= threshold:
                packed = decode(state)
                violation = slow(packed) if exact(packed) else None
                if violation is not None:
                    result.violation = violation
                    result.violation_schedule = _unwind(link)
                    result.truncated_by = "violation"
                    break
            if depth >= max_depth:
                for _pid, _s, field, width, live, _deltas, _at in steps:
                    if live[state >> field & width]:
                        result.truncated_by = "max_depth"
                        break
                else:
                    # No enabled pid ⟺ every slot halted or crashed ⟺
                    # all_settled, so the serial stuck counter can never
                    # tick here.  Expanded, with no edges.
                    if builder is not None:
                        opened_append(ordinal)
                        opened_at_append(len(edge_dst))
                continue
            # A state with no enabled pid is expanded too, with no edges.
            if builder is not None:
                opened_append(ordinal)
                opened_at_append(len(edge_dst))
            budget_exhausted = False
            for pid, s, field, width, live, deltas_row, at_row in steps:
                # Slot fields never move, so a re-encoded state (see
                # _fill_step) reads the same local states.
                si = state >> field & width
                if not live[si]:
                    continue
                delta = deltas_row[si][state >> at_row[si] & value_mask]
                if delta is None:
                    state, delta = _fill_step(
                        program, state, s, si, value_mask, visited, stack, nodes
                    )
                    value_mask = program.value_mask
                if not delta:
                    # Inert self-loop (child == state).  Serial steps
                    # once (1 event), enters the acceleration loop,
                    # steps once more (a deterministic repeat), sees the
                    # local repeat and gives up: exactly 2 events, then
                    # a self-edge.
                    events_executed += 2
                    if builder is not None:
                        edge_slot_append(s)
                        edge_dst_append(ordinal)
                    continue
                events_executed += 1
                child = state + delta
                child_ordinal = visited.get(child)
                if child_ordinal is None:
                    child_ordinal = len(visited)
                    if child_ordinal < max_states:
                        visited[child] = child_ordinal
                        push((child, depth + 1, (link, pid), child_ordinal))
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
            builder.entries = program.slot_entries()
            builder.layout = (program.field_shift, program.field_mask)
            try:
                tables = task.canonicalizer.packed_digest_tables(
                    program.values,
                    program.states,
                    program.halted,
                    program.crashed,
                )
            except Exception as error:
                raise CompileOverflow(_reason(error)) from error
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
        suspect: _Suspect,
        slow: Callable[[PackedState], Optional[str]],
        tables: Any,
        telemetry: TelemetrySink,
    ) -> ExplorationResult:
        """The quotient walk: int states beside their orbit-key vectors.

        Each stacked state is the program's int state
        (:meth:`CompiledProgram.encode`) and one int key per group
        element, identity first.  Equal ints are equal bytes keys and
        ``<`` agrees (:meth:`PackedDigestTables.orbit_weights`), so the
        walk dedups on the vector's minimum exactly as ``key_of_state``
        would.  ``run`` closed the tables first, so the ranks cover every
        digest and the int layout is fixed: a step of slot ``s`` is
        ``state + d`` with ``d`` from :meth:`CompiledProgram.delta_tables`
        and the vector moves element by element by the row of
        :meth:`CompiledProgram.orbit_delta_tables` at the same index.
        Only a poisoned entry (a ``None`` delta) is stepped on the
        decoded tuple, by :meth:`CompiledProgram.step_packed`, which
        interprets it; tables that grew there would leave the layout or
        the weights behind, so the walk raises :class:`CompileOverflow`
        instead and the interpreter takes the task.  The suspicion flags
        are read inline, as in the trivial walks.
        """
        canonicalizer = task.canonicalizer
        max_states = task.max_states
        max_depth = task.max_depth
        emit = telemetry.enabled
        progress_mask = self.progress_interval - 1

        weights = tables.orbit_weights(program.m)
        vector_of = weights.vector
        decode = program.decode
        encode = program.encode
        step_packed = program.step_packed
        value_mask = program.value_mask
        shift, mask = program.field_shift, program.field_mask
        deltas, at = program.delta_tables()
        vdeltas = program.orbit_delta_tables(weights.by_position)
        # One bundle per pid in scheduling order: the slot's field and
        # its per-slot tables.  live[si] ⟺ the slot can step.
        steps = tuple(
            (
                pid,
                s,
                shift[off],
                mask[off],
                program.live[s],
                deltas[s],
                at[s],
                vdeltas[s],
            )
            for pid, s, off in program.step_order
        )
        flag_fields = tuple(
            (shift[off], mask[off], suspect.flags.rows[s])
            for _pid, s, off in program.step_order
        )
        threshold = suspect.threshold
        exact = suspect.exact

        def table_sizes() -> List[int]:
            return [len(program.values)] + [len(x) for x in program.states]

        sizes = table_sizes()

        def poisoned_step(state: int, s: int) -> Tuple[int, List[int]]:
            """Step a poisoned entry through the interpreter."""
            child = step_packed(decode(state), s)
            if table_sizes() != sizes:
                raise CompileOverflow("the tables grew during the quotient walk")
            return encode(child), vector_of(child)

        initial = encode(program.initial_packed)
        initial_vector = vector_of(program.initial_packed)
        visited: Dict[int, int] = {min(initial_vector): initial_vector[0]}
        stack: List[Tuple[int, int, Any, List[int]]] = [
            (initial, 0, None, initial_vector)
        ]
        push = stack.append
        pop = stack.pop
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
            state, depth, link, vector = pop()
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
            hits = 0
            for field, width, flags in flag_fields:
                hits += flags[state >> field & width]
            if hits >= threshold:
                packed = decode(state)
                if exact(packed):
                    violation = slow(packed)
                    if violation is not None:
                        result.violation = violation
                        result.violation_schedule = _unwind(link)
                        result.truncated_by = "violation"
                        break
            if depth >= max_depth:
                # No enabled pid ⟺ all_settled: stuck never ticks, and
                # the budget cuts nothing.
                for _pid, _s, field, width, live, _d, _a, _v in steps:
                    if live[state >> field & width]:
                        result.truncated_by = "max_depth"
                        break
                continue
            budget_exhausted = False
            for pid, s, field, width, live, deltas_row, at_row, vrow in steps:
                si = state >> field & width
                if not live[si]:
                    continue
                index = state >> at_row[si] & value_mask
                delta = deltas_row[si][index]
                if delta is None:
                    child, child_vector = poisoned_step(state, s)
                elif not delta:
                    # The exact self-loop (child == state): serial steps
                    # once, steps once more in the acceleration loop
                    # below, sees the local repeat and gives up.
                    events_executed += 2
                    continue
                else:
                    child = state + delta
                    child_vector = list(map(add, vector, vrow[si][index]))
                events_executed += 1
                raw = child_vector[0]
                step_link = (link, pid)
                if raw == state_raw:
                    # Inert acceleration, exactly as serial: keep
                    # stepping this pid while the raw key stays put,
                    # watching its local state (⟺ its index — interning
                    # is by value equality) for a repeat.  A step can
                    # move the state yet keep the raw key: footprints
                    # merge local states.
                    local = child >> field & width
                    seen_locals = {local}
                    while raw == state_raw and live[local]:
                        index = child >> at_row[local] & value_mask
                        delta = deltas_row[local][index]
                        if delta is None:
                            child, child_vector = poisoned_step(child, s)
                        else:
                            child += delta
                            child_vector = list(
                                map(add, child_vector, vrow[local][index])
                            )
                        events_executed += 1
                        step_link = (step_link, pid)
                        raw = child_vector[0]
                        local = child >> field & width
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
                push((child, depth + 1, step_link, child_vector))
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
