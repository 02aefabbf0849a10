"""Exhaustive liveness checking over retained state graphs.

The paper's liveness theorems quantify over *infinite* executions: no
fair schedule starves the Figure 1 mutex forever (Theorem 3.3), every
solo run of the Figure 2/3 algorithms terminates (Theorems 4.1, 5.1).
On the finite, complete transition system a backend retains (see
:mod:`repro.verify.graph`) both reduce to cycle analysis:

* **Deadlock-freedom.**  A violation is a *fair non-progress cycle*: a
  reachable cycle in which every live process takes a step (so a fair
  scheduler could loop it forever), no step enters the critical section,
  and some live process is in its entry section.  The checker deletes
  the progress edges (stepping pid's ``in_critical_section`` goes false
  to true), computes strongly connected components of what remains, and
  looks for an SCC whose internal edges cover the whole live set with a
  trying state inside.  No such SCC means every fair infinite execution
  enters the critical section infinitely often — the exhaustive form of
  Theorem 3.3 (and, on the even-``m`` mutant, the Theorem 3.4 livelock
  is *found* rather than assumed).
* **Obstruction-freedom.**  A violation is a solo livelock: some state
  from which one process, running alone, never halts.  Because each
  node has at most one ``p``-labelled edge, ``p``'s solo runs form a
  functional subgraph; the checker chain-walks it with memoisation and
  reports any cycle (an inert self-loop included).  No cycle for any
  process means every solo run from every reachable state terminates —
  Theorems 4.1/4.2/5.1 as exhaustive verification instead of adversary
  sampling.

Both checkers work on node ordinals and the graph's flat edge arrays.
The automaton predicates (``in_critical_section``, ``phase(...) ==
"entry"``, live = neither halted nor crashed) are evaluated once per
slot entry, not per state, and folded into one small int per node, one
bit per (predicate, slot) that holds.  Tarjan's stacks, the
SCC routing, the chain walks and every ``visited`` set are lists and
byte arrays indexed by ordinal.

Both checkers decide in one pass with roots and chain origins in
ordinal order, the order the nodes are stored in: whether a fair
non-progress SCC or a solo cycle exists, and how many SCCs there are,
does not depend on that order.  Which SCC, which cycle entry and which
lasso a checker reports do.  So only when the ordinal pass finds a
violation does the checker run the same pass again with roots and
chain origins in raw-key order
(:meth:`~repro.verify.graph.StateGraph.iter_nodes`), a node's edges in
recorded (scheduler pid) order, and report what that pass meets first.
That is the order a bytes-keyed graph had, so verdicts, details and
lassos are the same from every producer of the same graph, and a
verdict that holds never pays for the raw-key sort.

Counterexamples come back as a :class:`Lasso` — a finite prefix
schedule from the initial state plus a repeatable cycle schedule — and
are *validated before being returned*: the checker replays both parts
through the pure kernel (:func:`~repro.runtime.kernel.step_value`,
:func:`~repro.runtime.kernel.solo_run_value`) and re-checks the
fairness/non-progress/trying conditions on the replayed states with the
automata's own predicates.  A lasso that fails its own replay is an
internal error, never a verdict.

All checkers require a ``complete`` graph: a truncated walk is a strict
under-approximation and any liveness verdict over it would be unsound
(:class:`~repro.errors.VerificationError`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.errors import VerificationError
from repro.runtime.kernel import (
    GlobalState,
    StepInstance,
    solo_run_value,
    step_value,
)
from repro.types import ProcessId
from repro.verify.graph import SlotEntry, StateGraph


@dataclass(frozen=True)
class Lasso:
    """A replayable infinite-execution witness: finite prefix + cycle.

    ``prefix`` drives the system from the initial state to the cycle
    entry; repeating ``cycle`` from there loops forever.  Both replay
    through :func:`~repro.runtime.replay.replay_schedule` on a fresh
    system (or :func:`~repro.runtime.kernel.step_value` on values).
    """

    prefix: Tuple[ProcessId, ...]
    cycle: Tuple[ProcessId, ...]
    #: Ordinal of the cycle entry state in the retained graph.
    entry: int


@dataclass(frozen=True)
class LivenessVerdict:
    """Outcome of one exhaustive liveness check."""

    kind: str
    holds: bool
    states: int
    detail: str
    lasso: Optional[Lasso] = None


def _require_complete(graph: StateGraph, kind: str) -> None:
    if not graph.complete:
        raise VerificationError(
            f"cannot check {kind} on a truncated state graph "
            f"({len(graph)} states retained): an incomplete graph is a "
            "strict under-approximation, so any liveness verdict over "
            "it would be unsound — raise the verification state budget"
        )


def _replay(
    instance: StepInstance,
    state: GlobalState,
    schedule: Tuple[ProcessId, ...],
) -> GlobalState:
    for pid in schedule:
        state = step_value(instance, state, pid)
    return state


def _node_masks(
    graph: StateGraph, flags: Callable[[SlotEntry], Tuple[Any, ...]]
) -> List[int]:
    """Per node, one bitmask of per-slot predicates.

    ``flags(entry)`` runs once per slot entry and returns one truth
    value per predicate; predicate ``j`` of slot ``s`` lands on bit
    ``j * nslots + s`` of the node's mask.  Only the slot fields are
    read: one table lookup per slot per node, by shift and mask.
    """
    nslots = len(graph.entries)
    tables: List[List[int]] = []
    for slot, row in enumerate(graph.entries):
        table: List[int] = []
        for entry in row:
            mask = 0
            for j, flag in enumerate(flags(entry)):
                if flag:
                    mask |= 1 << (j * nslots + slot)
            table.append(mask)
        tables.append(table)
    positions: List[Optional[List[int]]] = [None] * graph.m
    positions.extend(tables)
    return graph.fold(positions)


def _live(entry: SlotEntry) -> Tuple[bool]:
    return (not (entry[2] or entry[3]),)


def _slot_pids(
    instance: StepInstance, mask: int
) -> Tuple[ProcessId, ...]:
    """The pids whose slot bit is set in ``mask``, in scheduler order."""
    slot_of = instance.slot_of
    return tuple(pid for pid in instance.pid_order if mask >> slot_of[pid] & 1)


# ---------------------------------------------------------------------------
# Deadlock-freedom: fair non-progress cycles via SCC analysis
# ---------------------------------------------------------------------------


def _require_mutex_automata(instance: StepInstance) -> None:
    for pid, automaton in instance.automata.items():
        if not (
            hasattr(automaton, "in_critical_section")
            and hasattr(automaton, "phase")
        ):
            raise VerificationError(
                "deadlock-freedom requires mutex-style automata with "
                "in_critical_section()/phase() predicates; process "
                f"{pid}'s {type(automaton).__name__} has neither"
            )


def _in_cs(instance: StepInstance, state: GlobalState, pid: ProcessId) -> bool:
    local = instance.slot_entry(state, pid)[1]
    return bool(instance.automata[pid].in_critical_section(local))


def _trying(instance: StepInstance, state: GlobalState, pid: ProcessId) -> bool:
    local = instance.slot_entry(state, pid)[1]
    return instance.automata[pid].phase(local) == "entry"


def _deadlock_flags(
    instance: StepInstance,
) -> Callable[[SlotEntry], Tuple[Any, ...]]:
    """The deadlock-freedom checker's per-slot predicates: in the
    critical section, trying (in the entry section), live."""
    automata = instance.automata

    def flags(entry: SlotEntry) -> Tuple[Any, ...]:
        pid, local, halted, crashed = entry
        automaton = automata[pid]
        return (
            automaton.in_critical_section(local),
            automaton.phase(local) == "entry",
            not (halted or crashed),
        )

    return flags


class _SccPass(NamedTuple):
    """What one :func:`_nonprogress_sccs` pass found."""

    #: SCCs completed: all of them when ``violation`` is ``None``.
    count: int
    #: The members of the first fair non-progress SCC completed, in the
    #: order classic Tarjan pops them (DFS numbers falling, the SCC's
    #: root last), or ``None`` when there is none.
    violation: Optional[List[int]]
    #: Per node, ``~k`` once it is placed in the ``k``-th SCC completed
    #: (0 for a node the pass never reached, its DFS number for one not
    #: yet placed when a violation stopped the pass).
    component: List[int]
    #: Per node, the slot bits of its non-progress edges that lie inside
    #: its SCC.
    inner: List[int]


def _nonprogress_sccs(
    graph: StateGraph, roots: Iterable[int], masks: List[int]
) -> _SccPass:
    """Iterative Tarjan over the non-progress edges, testing each SCC for
    a fair non-progress cycle as it is completed.

    ``masks`` are :func:`check_deadlock_freedom`'s per-node masks: for
    ``k`` slots, bits ``0..k-1`` in the critical section, ``k..2k-1``
    trying, ``2k..3k-1`` live.  An edge is a progress edge when its
    stepping slot's bit is clear in the source's critical-section bits
    and set in the destination's; those are skipped.  Roots are taken in
    ``roots`` order and edges in recorded order.

    The state is flat: per-node int lists ``index`` (0 before the
    visit, then the DFS number until the node is placed in the ``k``-th
    SCC completed, then ``~k``), ``inner``, and ``low`` and ``resume`` (a
    node's low link and the tree edge it follows, stored while it waits
    on that child), plus two stacks of node ints: the DFS call stack and
    Tarjan's stack.  A node joins Tarjan's stack only when it finishes
    without rooting an SCC, so a single-node SCC never touches it; when
    a root finishes, its SCC is the root and the stack entries whose DFS
    numbers are above the root's, all on top.  ``inner[node]`` collects
    the slots of node's edges that lie inside its SCC: an edge does
    exactly when its destination is visited but not yet placed once the
    edge is done with, so the mask costs no extra pass.

    As an SCC is completed its members' ``inner`` bits (the slots that
    step inside it) and masks are OR-ed, and the masks AND-ed as well:
    the live set of an SCC with a cycle must not vary, since halted and
    crashed flags are monotone.  The SCC is a fair non-progress SCC when
    it has a cycle, its live slots are not empty and all step inside it,
    and some member has a live slot trying; the pass stops at the first
    one.  A holding pass keeps no member list: its result is the SCC
    count, which no root order changes.
    """
    start, count = graph.start, graph.count
    edge_slot, edge_dst = graph.edge_slot, graph.edge_dst
    n = len(graph)
    nslots = len(graph.entries)
    cs_bits = (1 << nslots) - 1
    live_shift = 2 * nslots
    index = [0] * n
    low = [0] * n
    inner = [0] * n
    resume = [0] * n
    stack: List[int] = []
    call: List[int] = []
    counter = 0
    sccs = 0
    for root in roots:
        if index[root]:
            continue
        counter += 1
        index[root] = lo = counter
        node, e, inn = root, start[root], 0
        while True:
            # Scan node's edges from e on; lo and inn are its low link
            # and inner bits so far, stored only while a child is open.
            end = start[node] + count[node]
            # The critical sections node is out of: an edge by one of
            # those slots into a state where it is in is a progress edge.
            outside = ~masks[node] & cs_bits
            while e < end:
                dst = edge_dst[e]
                dst_index = index[dst]
                # An edge into a placed SCC is passed over, progress or
                # not; any other non-progress edge is a tree edge (dst
                # not yet visited) or lies inside node's SCC.
                if dst_index >= 0:
                    entered = masks[dst] & outside
                    if not (entered and entered >> edge_slot[e] & 1):
                        if not dst_index:
                            break  # descend below
                        inn |= 1 << edge_slot[e]
                        if dst_index < lo:
                            lo = dst_index
                e += 1
            else:
                inner[node] = inn
                if lo < index[node]:
                    # Not a root: node waits on the stack, in its
                    # parent's SCC, and so does the tree edge to it.
                    stack.append(node)
                    child_lo = lo
                    node = call.pop()
                    e = resume[node]
                    inn = inner[node] | 1 << edge_slot[e]
                    lo = low[node]
                    if child_lo < lo:
                        lo = child_lo
                    e += 1
                    continue
                # node roots an SCC: itself and the stack entries whose
                # DFS numbers are above its own (lo), all on top.
                stepped = inn
                seen = common = masks[node]
                i = height = len(stack)
                while i and index[stack[i - 1]] > lo:
                    i -= 1
                    member = stack[i]
                    stepped |= inner[member]
                    mask = masks[member]
                    seen |= mask
                    common &= mask
                if stepped:
                    live = seen >> live_shift
                    if common >> live_shift != live:
                        raise RuntimeError(
                            "internal error: live set varies within an "
                            "SCC — halted/crashed flags are supposed to be "
                            "monotone"
                        )
                    if live and not live & ~stepped and seen >> nslots & live:
                        # Members in the order a stack that every node
                        # joins when visited pops them: DFS numbers
                        # falling, node last.
                        members = sorted(
                            stack[i:], key=index.__getitem__, reverse=True
                        )
                        members.append(node)
                        return _SccPass(sccs + 1, members, index, inner)
                label = ~sccs
                sccs += 1
                index[node] = label
                if i < height:
                    for member in stack[i:]:
                        index[member] = label
                    del stack[i:]
                if not call:
                    break
                node = call.pop()
                e = resume[node] + 1
                inn = inner[node]
                lo = low[node]
                continue
            # Descend along the tree edge e to dst.
            resume[node] = e
            low[node] = lo
            inner[node] = inn
            call.append(node)
            counter += 1
            index[dst] = lo = counter
            node, e, inn = dst, start[dst], 0
    return _SccPass(sccs, None, index, inner)


def _route(
    adj: Dict[int, List[Tuple[ProcessId, int]]],
    src: int,
    accept: Callable[[int, ProcessId, int], bool],
) -> Tuple[List[ProcessId], int]:
    """Shortest schedule from ``src`` whose final edge satisfies
    ``accept``, breadth-first over the restricted adjacency."""
    parent: Dict[int, Tuple[int, ProcessId]] = {}
    queue: deque = deque([src])
    seen = {src}
    while queue:
        node = queue.popleft()
        for pid, dst in adj.get(node, []):
            if accept(node, pid, dst):
                path: List[ProcessId] = [pid]
                cur = node
                while cur != src:
                    cur, step = parent[cur]
                    path.append(step)
                path.reverse()
                return path, dst
            if dst not in seen:
                seen.add(dst)
                parent[dst] = (node, pid)
                queue.append(dst)
    raise RuntimeError(
        "internal error: SCC routing failed — the component is not "
        "strongly connected under its internal edges"
    )


def _fair_cycle(
    adj: Dict[int, List[Tuple[ProcessId, int]]],
    start: int,
    required: Tuple[ProcessId, ...],
) -> Tuple[ProcessId, ...]:
    """A cycle through ``start`` (within the restricted adjacency) in
    which every required pid steps at least once."""
    schedule: List[ProcessId] = []
    remaining = set(required)
    cur = start
    while remaining:
        hop, cur = _route(adj, cur, lambda u, p, v: p in remaining)
        remaining.difference_update(hop)
        schedule.extend(hop)
    if cur != start:
        hop, cur = _route(adj, cur, lambda u, p, v: v == start)
        schedule.extend(hop)
    return tuple(schedule)


def check_deadlock_freedom(
    instance: StepInstance, graph: StateGraph
) -> LivenessVerdict:
    """Exhaustive Theorem 3.3-style deadlock-freedom over ``graph``.

    Holds iff the non-progress subgraph has no SCC whose internal edges
    are fair for the component's live set while some member state has a
    live process in its entry section.  On violation the returned
    verdict carries a replay-validated :class:`Lasso`.
    """
    _require_complete(graph, "deadlock-freedom")
    _require_mutex_automata(instance)
    # Bits 0..k-1: in the critical section; k..2k-1: trying; 2k..3k-1:
    # live.  Only the low bits matter to the progress-edge test.
    masks = _node_masks(graph, _deadlock_flags(instance))
    found = _nonprogress_sccs(graph, range(len(graph)), masks)
    if found.violation is None:
        return LivenessVerdict(
            kind="deadlock-freedom",
            holds=True,
            states=len(graph),
            detail=(
                f"no fair non-progress cycle in {len(graph)} states / "
                f"{found.count} SCCs: every fair infinite execution enters "
                "the critical section infinitely often"
            ),
        )
    # Report the SCC a pass with roots in raw-key order meets first, so
    # the lasso does not depend on how the producer numbered the nodes.
    members = _nonprogress_sccs(graph, graph.iter_nodes(), masks).violation
    if members is None:
        raise RuntimeError(
            "internal error: the raw-key-ordered SCC pass found no fair "
            "non-progress SCC where the ordinal-ordered pass found one"
        )
    nslots = len(graph.entries)
    live = masks[members[0]] >> 2 * nslots
    entry = next(node for node in members if masks[node] >> nslots & live)
    live_pids = _slot_pids(instance, live)
    cycle = _fair_cycle(_internal_edges(graph, members, masks), entry, live_pids)
    prefix = graph.path_to(entry)
    _validate_df_lasso(
        instance, graph.nodes[graph.initial], prefix, cycle,
        graph.nodes[entry], live_pids,
    )
    return LivenessVerdict(
        kind="deadlock-freedom",
        holds=False,
        states=len(graph),
        detail=(
            f"fair non-progress cycle of length {len(cycle)} through "
            f"an SCC of {len(members)} states (live pids "
            f"{list(live_pids)} all step, no critical-section entry, a "
            f"live process stays in its entry section); prefix length "
            f"{len(prefix)}"
        ),
        lasso=Lasso(prefix=prefix, cycle=cycle, entry=entry),
    )


def _internal_edges(
    graph: StateGraph, members: List[int], cs: List[int]
) -> Dict[int, List[Tuple[ProcessId, int]]]:
    """An SCC's internal non-progress edges, per member in recorded
    order, as the routing adjacency."""
    pids = graph.slot_pids
    edge_slot, edge_dst = graph.edge_slot, graph.edge_dst
    member_set = set(members)
    internal: Dict[int, List[Tuple[ProcessId, int]]] = {}
    for node in members:
        first = graph.start[node]
        kept = [
            (pids[edge_slot[e]], edge_dst[e])
            for e in range(first, first + graph.count[node])
            if edge_dst[e] in member_set
            and not cs[edge_dst[e]] & ~cs[node] & 1 << edge_slot[e]
        ]
        if kept:
            internal[node] = kept
    return internal


def _validate_df_lasso(
    instance: StepInstance,
    initial_state: GlobalState,
    prefix: Tuple[ProcessId, ...],
    cycle: Tuple[ProcessId, ...],
    entry_state: GlobalState,
    live: Tuple[ProcessId, ...],
) -> None:
    """Replay the lasso through the pure kernel and re-check every
    condition the verdict claims.  Failures are internal errors."""
    state = _replay(instance, initial_state, prefix)
    if state != entry_state:
        raise RuntimeError(
            "internal error: lasso prefix does not replay to the cycle "
            "entry state"
        )
    if not any(_trying(instance, state, pid) for pid in live):
        raise RuntimeError(
            "internal error: no live process is trying at the cycle entry"
        )
    stepped: Set[ProcessId] = set()
    for pid in cycle:
        successor = step_value(instance, state, pid)
        if not _in_cs(instance, state, pid) and _in_cs(
            instance, successor, pid
        ):
            raise RuntimeError(
                "internal error: lasso cycle contains a progress edge"
            )
        stepped.add(pid)
        state = successor
    if state != entry_state:
        raise RuntimeError(
            "internal error: lasso cycle does not return to its entry state"
        )
    if not set(live) <= stepped:
        raise RuntimeError(
            "internal error: lasso cycle is not fair for the live set"
        )


# ---------------------------------------------------------------------------
# Obstruction-freedom: solo livelocks via functional-subgraph chain walks
# ---------------------------------------------------------------------------


def _solo_successors(graph: StateGraph, slot: int) -> List[int]:
    """Per node, the destination of its ``slot`` edge, or -1 if none."""
    start, count = graph.start, graph.count
    edge_slot, edge_dst = graph.edge_slot, graph.edge_dst
    solo = [-1] * len(graph)
    for node in range(len(graph)):
        first = start[node]
        for e in range(first, first + count[node]):
            if edge_slot[e] == slot:
                solo[node] = edge_dst[e]
                break
    return solo


def _solo_cycle(
    solo: List[int], origins: Iterable[int]
) -> Optional[Tuple[int, int]]:
    """The first solo cycle the chain walks from ``origins`` close, as
    ``(entry, length)``, or ``None`` when every chain settles.

    ``solo`` is :func:`_solo_successors`' functional subgraph.  A chain
    stops at a node already known to settle or without an edge (the
    process halted or crashed there: its solo run has settled), or
    closes a cycle when it meets a node on its own path.  Whether a
    cycle exists does not depend on the order of ``origins``; which one
    is met first does.
    """
    # Per node: 0 not yet walked, 1 on the current chain, 2 settles.
    mark = bytearray(len(solo))
    for origin in origins:
        if mark[origin]:
            continue
        path: List[int] = []
        cur = origin
        while cur >= 0 and not mark[cur]:
            mark[cur] = 1
            path.append(cur)
            cur = solo[cur]
        if cur >= 0 and mark[cur] == 1:
            return cur, len(path) - path.index(cur)
        for node in path:
            mark[node] = 2
    return None


def check_obstruction_freedom(
    instance: StepInstance, graph: StateGraph
) -> LivenessVerdict:
    """Exhaustive Theorem 4.1/5.1-style obstruction-freedom over ``graph``.

    For every process ``p`` and every reachable state, running ``p``
    solo must terminate.  Each node has at most one ``p``-edge, so solo
    runs form a functional subgraph: memoised chain walks classify each
    node as terminating or cycling, and any cycle (self-loops included)
    is a solo livelock, returned with a replay-validated lasso whose
    cycle is just ``p`` repeated.
    """
    _require_complete(graph, "obstruction-freedom")
    for pid in instance.pid_order:
        solo = _solo_successors(graph, instance.slot_of[pid])
        if _solo_cycle(solo, range(len(graph))) is None:
            continue
        # Report the cycle the chains from raw-key-ordered origins meet
        # first, so the lasso does not depend on the node numbering.
        found = _solo_cycle(solo, graph.iter_nodes())
        if found is None:
            raise RuntimeError(
                "internal error: the raw-key-ordered chain walks found no "
                "solo cycle where the ordinal-ordered walks found one"
            )
        return _of_violation(instance, graph, pid, *found)
    live_counts = sorted(
        {bin(mask).count("1") for mask in _node_masks(graph, _live)}
    )
    return LivenessVerdict(
        kind="obstruction-freedom",
        holds=True,
        states=len(graph),
        detail=(
            f"every solo run from every of {len(graph)} states "
            f"terminates, for each of {len(instance.pid_order)} "
            f"processes (live-set sizes seen: {live_counts})"
        ),
    )


def _of_violation(
    instance: StepInstance,
    graph: StateGraph,
    pid: ProcessId,
    entry: int,
    cycle_len: int,
) -> LivenessVerdict:
    prefix = graph.path_to(entry)
    cycle = (pid,) * cycle_len
    entry_state = graph.nodes[entry]
    state = _replay(instance, graph.nodes[graph.initial], prefix)
    if state != entry_state:
        raise RuntimeError(
            "internal error: solo-livelock prefix does not replay to the "
            "cycle entry state"
        )
    final, steps, settled = solo_run_value(
        instance, entry_state, pid, cycle_len
    )
    if settled or final != entry_state:
        raise RuntimeError(
            "internal error: claimed solo livelock does not cycle under "
            "the kernel's solo run"
        )
    return LivenessVerdict(
        kind="obstruction-freedom",
        holds=False,
        states=len(graph),
        detail=(
            f"solo livelock: process {pid} running alone repeats a "
            f"{cycle_len}-step cycle forever (prefix length "
            f"{len(prefix)})"
        ),
        lasso=Lasso(prefix=prefix, cycle=cycle, entry=entry),
    )


#: Liveness property kind -> exhaustive checker.
LIVENESS_CHECKERS: Dict[
    str, Callable[[StepInstance, StateGraph], LivenessVerdict]
] = {
    "deadlock-freedom": check_deadlock_freedom,
    "obstruction-freedom": check_obstruction_freedom,
}
