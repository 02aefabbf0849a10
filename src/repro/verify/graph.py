"""The retained state graph: exploration's successor relation as a value.

When :func:`repro.runtime.exploration.explore` is called with
``retain_graph=True`` the backend records, for every expanded state, the
full labelled successor relation — one edge per enabled process —
alongside the states themselves.  The result is a :class:`StateGraph`:
the exact transition system the walk explored, over which
:mod:`repro.verify.liveness` runs its SCC and solo-run analyses.

**Layout.**  Nodes are *ordinals*: ``0`` is the initial state, the rest
are numbered in the order the walk first saw them.  Node ``o`` is stored
as one int ``packed[o]`` that packs one index into ``values`` per
register, then one index into ``entries[slot]`` per slot, where an entry
is the ``(pid, local, halted, crashed)`` tuple a
:data:`~repro.runtime.kernel.GlobalState` keeps for that slot.  The
graph carries the *layout* the ints were encoded in: packed position
``i`` (registers first, then slots) is the bit field
``(packed[o] >> field_shift[i]) & field_mask[i]``.  Out-edges live in
two flat arrays, ``edge_slot`` (the stepping process's slot) and
``edge_dst`` (the destination ordinal); node ``o``'s edges are
``start[o] .. start[o] + count[o] - 1``, in the scheduler's pid order,
and ``start[o] == -1`` means the walk never expanded ``o`` (a truncated
frontier).  Nothing per node is a Python object except its int.

Built on demand, reading fields by shift and mask:

* ``nodes[o]`` — the exact ``GlobalState`` (registers and slot entries
  looked up in the component tables);
* :meth:`StateGraph.key` — the node's raw content digest, the bytes the
  trivial canonicalizer's ``key_of_state`` returns, joined from the
  per-component digests in ``digests``
  (:class:`~repro.runtime.canonical.PackedDigestTables`);
* :meth:`StateGraph.iter_nodes` — ordinals in raw-key order, sorted on
  the integer keys of :meth:`PackedDigestTables.orbit_weights`, which
  order exactly like the bytes.

The whole-graph readers (:meth:`StateGraph.fold`, which ``iter_nodes``,
``to_bytes`` and the liveness masks use) read adjacent narrow fields
with one lookup: a table per run of neighbouring fields, at most 16 bits
wide, holds the sum of the fields' entries for every value of those
bits.

Both producers feed one :class:`GraphBuilder` ints: the compiled
kernel the int states it already walks (its dedup dict *is* the
builder's), in the program's layout; and the interpreted serial walk
its value states, packed by interning register values and slot entries
into fixed-width fields.

Soundness constraints (enforced at the ``explore()`` entrance):

* **Trivial canonicalizer only.**  Under a symmetry quotient the graph's
  nodes are orbit *representatives*, and which representative claims an
  orbit depends on visit order, so a quotient graph describes one walk
  rather than the state space.  Worse, quotient edges carry pid labels
  that are only correct up to the group element mapping the concrete
  successor onto its representative, which breaks the per-pid fairness
  bookkeeping the liveness analyses rely on.  With the trivial
  canonicalizer a node is a concrete state and an edge ``(p, dst)``
  from ``src`` means exactly
  ``step_value(instance, nodes[src], p) == nodes[dst]`` — including
  self-loops, which the liveness checkers need (an inert self-loop *is*
  a solo livelock).
* **Complete walks only** for liveness verdicts: a truncated graph is a
  strict under-approximation, so :class:`StateGraph` records
  ``complete`` and the checkers refuse incomplete graphs.

Determinism: on complete runs the serial DFS and the compiled DFS
visit the same states and expand each exactly once, recording the same
edges in the same per-node order (the instance's scheduler pid order).
Ordinals are each producer's own numbering, but
:meth:`StateGraph.to_bytes` — nodes sorted by raw key, edges naming
their destinations by raw key — produces byte-identical serialisations
from both.  The differential tests in ``tests/verify/test_graph.py`` pin
this.
"""

from __future__ import annotations

from operator import add
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.runtime.canonical import PackedDigestTables
from repro.runtime.kernel import GlobalState
from repro.types import ProcessId

if TYPE_CHECKING:
    from array import array

#: One slot entry, as a :data:`~repro.runtime.kernel.GlobalState` keeps
#: it: ``(pid, local state, halted, crashed)``.
SlotEntry = Tuple[ProcessId, Any, bool, bool]

#: How a node int is encoded: per packed position (register values
#: first, then slot entries), the bit shift and the mask of its field.
Layout = Tuple[Sequence[int], Sequence[int]]

#: Leading magic of the canonical :meth:`StateGraph.to_bytes` framing.
STATEGRAPH_MAGIC = b"repro.stategraph/v1"

#: Widest run of adjacent fields :meth:`StateGraph.fold` reads with one
#: lookup (its table has ``2**bits`` entries).
_CHUNK_BITS = 16


class StateGraph:
    """The explored transition system over node ordinals (module docstring).

    Built by :meth:`GraphBuilder.finish`; read-only afterwards.  On a
    ``complete`` graph every node was expanded.
    """

    __slots__ = (
        "values",
        "entries",
        "digests",
        "packed",
        "field_shift",
        "field_mask",
        "start",
        "count",
        "edge_slot",
        "edge_dst",
        "complete",
        "edge_count",
        "m",
        "slot_pids",
        "nodes",
    )

    #: Ordinal of the initial state.
    initial = 0

    def __init__(
        self,
        values: Sequence[Any],
        entries: Sequence[Sequence[SlotEntry]],
        digests: PackedDigestTables,
        packed: Sequence[int],
        layout: Layout,
        start: "array[int]",
        count: "array[int]",
        edge_slot: "array[int]",
        edge_dst: "array[int]",
        complete: bool,
    ) -> None:
        self.values = values
        self.entries = entries
        self.digests = digests
        self.packed = packed
        #: Per packed position, its field's shift and mask in a node int.
        self.field_shift: Tuple[int, ...] = tuple(layout[0])
        self.field_mask: Tuple[int, ...] = tuple(layout[1])
        self.start = start
        self.count = count
        self.edge_slot = edge_slot
        self.edge_dst = edge_dst
        self.complete = complete
        #: Scheduler events the retention observed (one per recorded edge;
        #: informational — the walk's own counter includes acceleration).
        self.edge_count = len(edge_dst)
        #: Registers per node (the packed positions before the slots).
        self.m = len(self.field_shift) - len(entries)
        #: Slot -> the pid whose entries the slot holds.
        self.slot_pids: Tuple[ProcessId, ...] = tuple(
            row[0][0] for row in entries
        )
        #: ``nodes[o]`` is node ``o``'s ``GlobalState``, rebuilt on demand.
        self.nodes = NodeStates(self)

    def __len__(self) -> int:
        return len(self.packed)

    def fields(self, ordinal: int) -> Tuple[int, ...]:
        """Node ``ordinal``'s component indices, one per packed position."""
        node = self.packed[ordinal]
        return tuple(
            [node >> shift & mask for shift, mask in zip(self.field_shift, self.field_mask)]
        )

    def fold(self, tables: Sequence[Optional[Sequence[Any]]]) -> List[Any]:
        """Per node, in ordinal order, the sum (``+``) over packed
        positions ``i`` of ``tables[i][field i]``, skipping positions
        whose table is ``None``: ints add, bytes concatenate in position
        order.

        A run of neighbouring positions, each field directly above the
        previous one and at most 16 bits in all, is read with one
        lookup into a table that holds the run's sum for every value of
        its bits; in the compiled layout the register fields are
        narrow, so a mutex ``m=9`` node takes 4 lookups, not 11.  Each
        pass over the nodes makes two lookups.
        """
        packed = self.packed
        chunks = self._chunks(tables)
        out: Optional[List[Any]] = None
        for i in range(0, len(chunks), 2):
            if i + 1 < len(chunks):
                (shift, mask, table), (shift2, mask2, table2) = chunks[i : i + 2]
                column = [
                    table[x >> shift & mask] + table2[x >> shift2 & mask2]
                    for x in packed
                ]
            else:
                shift, mask, table = chunks[i]
                column = [table[x >> shift & mask] for x in packed]
            out = column if out is None else list(map(add, out, column))
        return out if out is not None else [0] * len(packed)

    def _chunks(
        self, tables: Sequence[Optional[Sequence[Any]]]
    ) -> List[Tuple[int, int, Sequence[Any]]]:
        """:meth:`fold`'s lookups: ``(shift, mask, table)`` per run of
        neighbouring fields, in position order."""
        # Small graphs merge fewer fields: a table costs 2**bits entries.
        limit = min(_CHUNK_BITS, len(self.packed).bit_length())
        chunks: List[Tuple[int, int, Sequence[Any]]] = []
        end = -1  # the bit above position q - 1's field, -1 if not read
        for q, table in enumerate(tables):
            if table is None:
                end = -1
                continue
            shift, mask = self.field_shift[q], self.field_mask[q]
            width = mask.bit_length()
            if shift == end and chunks[-1][1].bit_length() + width <= limit:
                # Field q sits directly above the last run: index the
                # merged table by the run's bits with field q's above
                # them, both tables padded to their fields' full range
                # (padding is never read).
                low_shift, low_mask, low = chunks[-1]
                merged = [
                    lo + hi
                    for hi in _padded(table, mask)
                    for lo in _padded(low, low_mask)
                ]
                run = low_mask.bit_length() + width
                chunks[-1] = (low_shift, (1 << run) - 1, merged)
            else:
                chunks.append((shift, mask, table))
            end = shift + width
        return chunks

    def _raw_tables(self) -> Tuple[Sequence[bytes], ...]:
        """Per packed position, the raw digest of each component index."""
        digests = self.digests
        return (digests.value_raw,) * self.m + tuple(digests.slot_raw)

    def key(self, ordinal: int) -> bytes:
        """Node ``ordinal``'s raw content digest (the trivial
        canonicalizer's raw key of ``nodes[ordinal]``)."""
        return b"".join(
            [table[i] for table, i in zip(self._raw_tables(), self.fields(ordinal))]
        )

    def expanded(self, ordinal: int) -> bool:
        """Whether the walk expanded the node (terminal states included)."""
        return self.start[ordinal] >= 0

    def successors(self, ordinal: int) -> Tuple[Tuple[ProcessId, int], ...]:
        """Outgoing ``(pid, destination ordinal)`` edges, in recorded
        (scheduler pid) order; empty for terminal and never-expanded
        nodes."""
        first = self.start[ordinal]
        if first < 0:
            return ()
        pids = self.slot_pids
        edge_slot = self.edge_slot
        edge_dst = self.edge_dst
        return tuple(
            (pids[edge_slot[e]], edge_dst[e])
            for e in range(first, first + self.count[ordinal])
        )

    def successor_via(self, ordinal: int, pid: ProcessId) -> Optional[int]:
        """The destination of the node's ``pid``-labelled edge, if any."""
        for edge_pid, dst in self.successors(ordinal):
            if edge_pid == pid:
                return dst
        return None

    def iter_nodes(self) -> Iterator[int]:
        """Node ordinals in raw-key (deterministic) order."""
        keys = self.fold(self.digests.orbit_weights(self.m).by_element[0])
        return iter(sorted(range(len(keys)), key=keys.__getitem__))

    def path_to(self, target: int) -> Tuple[ProcessId, ...]:
        """A schedule from the initial state to node ``target``.

        Deterministic breadth-first search over the recorded edges
        (neighbours in recorded order), so every producer's graph yields
        the same schedule for the same target state.  The returned pids
        replay through :func:`~repro.runtime.kernel.step_value` (or
        :func:`~repro.runtime.replay.replay_schedule` on a fresh system)
        from the initial state to ``nodes[target]``.
        """
        if target == self.initial:
            return ()
        start, count = self.start, self.count
        edge_slot, edge_dst = self.edge_slot, self.edge_dst
        pids = self.slot_pids
        parent: Dict[int, Tuple[int, ProcessId]] = {}
        seen = bytearray(len(self.packed))
        seen[self.initial] = 1
        frontier: List[int] = [self.initial]
        while frontier:
            next_frontier: List[int] = []
            for node in frontier:
                first = start[node]
                for e in range(first, first + count[node]):
                    dst = edge_dst[e]
                    if seen[dst]:
                        continue
                    seen[dst] = 1
                    parent[dst] = (node, pids[edge_slot[e]])
                    if dst == target:
                        path: List[ProcessId] = []
                        cur = dst
                        while cur != self.initial:
                            cur, step = parent[cur]
                            path.append(step)
                        return tuple(reversed(path))
                    next_frontier.append(dst)
            frontier = next_frontier
        raise KeyError(f"node {target} is not reachable in this graph")

    def to_bytes(self) -> bytes:
        """Canonical serialisation: identical bytes for identical graphs.

        Nodes are emitted sorted by raw key, each with its edges in
        recorded (scheduler pid) order and destinations named by raw key,
        so ordinals — which differ between producers — never reach the
        bytes.  Node *states* are not re-serialised: the key already is
        the content digest of the state, so two graphs with equal
        serialisations describe the same transition system.
        """
        keys = self.fold(self._raw_tables())
        labels = [f"p{pid};".encode("ascii") for pid in self.slot_pids]
        start, count = self.start, self.count
        edge_slot, edge_dst = self.edge_slot, self.edge_dst
        out: List[bytes] = [
            STATEGRAPH_MAGIC,
            b"\x01" if self.complete else b"\x00",
            keys[self.initial],
            len(keys).to_bytes(8, "big"),
        ]
        for node in sorted(range(len(keys)), key=keys.__getitem__):
            first = start[node]
            out.append(keys[node])
            out.append(count[node].to_bytes(4, "big"))
            for e in range(first, first + count[node]):
                out.append(labels[edge_slot[e]])
                out.append(keys[edge_dst[e]])
        return b"".join(out)


def _padded(table: Sequence[Any], mask: int) -> List[Any]:
    """``table`` extended to one entry per value of a field of ``mask``."""
    return list(table) + list(table[:1]) * (mask + 1 - len(table))


class NodeStates:
    """``graph.nodes``: node ordinal -> ``GlobalState``, rebuilt on demand
    from the node's fields and the component tables."""

    __slots__ = ("_graph",)

    def __init__(self, graph: StateGraph) -> None:
        self._graph = graph

    def __len__(self) -> int:
        return len(self._graph.packed)

    def __getitem__(self, ordinal: int) -> GlobalState:
        graph = self._graph
        fields = graph.fields(ordinal)
        m = graph.m
        return (
            tuple(map(graph.values.__getitem__, fields[:m])),
            tuple(row[i] for row, i in zip(graph.entries, fields[m:])),
        )


class GraphBuilder:
    """One walk's graph under construction; every producer feeds one.

    ``node(packed)`` returns a node int's ordinal, numbering it on first
    sight; ``expand(o)`` opens node ``o``'s out-edges (an expanded
    terminal state opens and records none) and ``edge(slot, dst)``
    appends one to the open node, so a node's edges are contiguous.
    ``finish`` packages the arrays with the per-component digests and
    the walk's completeness verdict.

    ``layout`` is the encoding of the node ints; ``ordinal_of`` is a
    plain ``int -> ordinal`` dict and ``packed`` the ordinal-indexed
    list of node ints.  The compiled walk, whose hot loop cannot afford
    a method call per edge, dedups through ``ordinal_of`` itself and
    appends to ``packed`` and the edge and expansion arrays in place,
    with the same meaning as the methods; when its register fields
    widen it re-encodes both, and it sets ``layout`` and ``entries``
    when the walk ends.
    """

    __slots__ = (
        "values",
        "entries",
        "layout",
        "packed",
        "ordinal_of",
        "opened",
        "opened_at",
        "edge_slot",
        "edge_dst",
    )

    def __init__(
        self,
        values: Sequence[Any],
        entries: Sequence[Sequence[SlotEntry]],
        initial: int,
        layout: Layout,
    ) -> None:
        # Imported here, not at module level: ``import repro`` loads this
        # module, and ``array`` is a shared library only walks need.
        from array import array

        self.values = values
        self.entries = entries
        self.layout = layout
        self.packed: List[int] = [initial]
        self.ordinal_of: Dict[int, int] = {initial: 0}
        #: Expanded ordinals in expansion order, and where each one's
        #: edges begin in the edge arrays.
        self.opened: "array[int]" = array("q")
        self.opened_at: "array[int]" = array("q")
        self.edge_slot: "array[int]" = array("H")
        self.edge_dst: "array[int]" = array("q")

    def node(self, packed: int) -> int:
        """The ordinal of node int ``packed``, numbered on first sight."""
        ordinal = self.ordinal_of.get(packed)
        if ordinal is None:
            ordinal = self.ordinal_of[packed] = len(self.packed)
            self.packed.append(packed)
        return ordinal

    def expand(self, ordinal: int) -> None:
        """Open ``ordinal``'s out-edges (closing the previous node's)."""
        self.opened.append(ordinal)
        self.opened_at.append(len(self.edge_dst))

    def edge(self, slot: int, dst: int) -> None:
        """Append the open node's edge: ``slot`` steps to ``dst``."""
        self.edge_slot.append(slot)
        self.edge_dst.append(dst)

    def finish(self, digests: PackedDigestTables, complete: bool) -> StateGraph:
        """The finished graph; ``digests`` holds the raw digest of every
        component index (``value_raw``/``slot_raw``)."""
        from array import array

        nodes = len(self.packed)
        start = array("q", [-1]) * nodes
        count = array("q", [0]) * nodes
        bounds = self.opened_at.tolist()
        bounds.append(len(self.edge_dst))
        for i, ordinal in enumerate(self.opened):
            start[ordinal] = bounds[i]
            count[ordinal] = bounds[i + 1] - bounds[i]
        return StateGraph(
            values=self.values,
            entries=self.entries,
            digests=digests,
            packed=self.packed,
            layout=self.layout,
            start=start,
            count=count,
            edge_slot=self.edge_slot,
            edge_dst=self.edge_dst,
            complete=complete,
        )
