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

Which SCC, which cycle entry and which lasso a checker reports depend
only on visit order, and that order is the one a bytes-keyed graph had:
roots and chain origins are taken in raw-key order
(:meth:`~repro.verify.graph.StateGraph.iter_nodes`), and a node's edges
in recorded (scheduler pid) order.  Ordinals themselves never decide
anything, so verdicts, details and lassos are the same from every
producer of the same graph.

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
from operator import getitem
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

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
    ``j * nslots + s`` of the node's mask, at the cost of one table
    lookup per slot per node.
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
    m = graph.m
    return [sum(map(getitem, tables, packed[m:])) for packed in graph.packed]


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


def _nonprogress_sccs(
    graph: StateGraph, order: List[int], cs: List[int]
) -> List[Tuple[List[int], int]]:
    """Iterative Tarjan over the non-progress edges.

    An edge is a progress edge when its stepping slot's bit is clear in
    the source's critical-section mask ``cs`` and set in the
    destination's; those are skipped.  Roots are taken in ``order`` and
    edges in recorded order.  SCCs come out in completion order, each as
    ``(members in stack-pop order, stepped)``: ``stepped`` is the
    bitmask of slots that step on an edge inside the SCC, 0 when no
    cycle runs through it.  An edge lies inside an SCC exactly when its
    destination is still on Tarjan's stack once the edge is done with,
    so the mask costs no extra pass.
    """
    start, count = graph.start, graph.count
    edge_slot, edge_dst = graph.edge_slot, graph.edge_dst
    n = len(graph)
    # DFS numbers are 1..n; 0 = not yet visited, ``done`` = already
    # placed in an SCC (so "on Tarjan's stack" is 0 < index < done).
    done = n + 1
    index = [0] * n
    low = [0] * n
    inner = [0] * n  # per node: slots of its edges found inside its SCC
    stack: List[int] = []
    sccs: List[Tuple[List[int], int]] = []
    counter = 0
    for root in order:
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        first = start[root]
        # Frame: (node, ~cs[node], its edge iterator, the slot bit of
        # the tree edge that reached it).
        work = [(root, ~cs[root], iter(range(first, first + count[root])), 0)]
        while work:
            node, not_cs, edges, _ = work[-1]
            for e in edges:
                dst = edge_dst[e]
                bit = 1 << edge_slot[e]
                if cs[dst] & not_cs & bit:
                    continue  # progress edge
                dst_index = index[dst]
                if not dst_index:
                    counter += 1
                    index[dst] = low[dst] = counter
                    stack.append(dst)
                    first = start[dst]
                    work.append(
                        (dst, ~cs[dst], iter(range(first, first + count[dst])), bit)
                    )
                    break
                if dst_index != done:
                    inner[node] |= bit
                    if dst_index < low[node]:
                        low[node] = dst_index
            else:
                via = work.pop()[3]
                if low[node] == index[node]:
                    members: List[int] = []
                    stepped = 0
                    while True:
                        top = stack.pop()
                        index[top] = done
                        members.append(top)
                        stepped |= inner[top]
                        if top == node:
                            break
                    sccs.append((members, stepped))
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                    if index[node] != done:
                        inner[parent] |= via
    return sccs


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
    automata = instance.automata

    def flags(entry: SlotEntry) -> Tuple[Any, ...]:
        pid, local, halted, crashed = entry
        automaton = automata[pid]
        return (
            automaton.in_critical_section(local),
            automaton.phase(local) == "entry",
            not (halted or crashed),
        )

    # Bits 0..k-1: in the critical section; k..2k-1: trying; 2k..3k-1:
    # live.  Only the low bits matter to the progress-edge test.
    masks = _node_masks(graph, flags)
    nslots = len(graph.entries)
    all_slots = (1 << nslots) - 1
    sccs = _nonprogress_sccs(graph, list(graph.iter_nodes()), masks)
    for members, stepped in sccs:
        if not stepped:
            continue  # trivial SCC: no cycle through it
        live = masks[members[0]] >> 2 * nslots
        for node in members[1:]:
            if masks[node] >> 2 * nslots != live:
                raise RuntimeError(
                    "internal error: live set varies within an SCC — "
                    "halted/crashed flags are supposed to be monotone"
                )
        if not live or live & ~stepped:
            continue  # no fair scheduler can loop here forever
        entry = next(
            (
                node
                for node in members
                if masks[node] >> nslots & all_slots & live
            ),
            None,
        )
        if entry is None:
            continue  # nobody trying: starving no one
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
    return LivenessVerdict(
        kind="deadlock-freedom",
        holds=True,
        states=len(graph),
        detail=(
            f"no fair non-progress cycle in {len(graph)} states / "
            f"{len(sccs)} SCCs: every fair infinite execution enters "
            "the critical section infinitely often"
        ),
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
    order = list(graph.iter_nodes())
    for pid in instance.pid_order:
        solo = _solo_successors(graph, instance.slot_of[pid])
        terminates = bytearray(len(graph))
        for origin in order:
            if terminates[origin]:
                continue
            path: List[int] = []
            position: Dict[int, int] = {}
            cur = origin
            # Walk until the chain meets a known-terminating node or
            # one without a p-edge (p halted or crashed there: the solo
            # run has settled) — or closes a cycle.
            while cur >= 0 and not terminates[cur]:
                if cur in position:
                    cycle_len = len(path) - position[cur]
                    return _of_violation(instance, graph, pid, cur, cycle_len)
                position[cur] = len(path)
                path.append(cur)
                cur = solo[cur]
            for node in path:
                terminates[node] = 1
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
