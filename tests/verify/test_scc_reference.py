"""The deadlock-freedom SCC pass against an independent reference.

:func:`~repro.verify.liveness._nonprogress_sccs` decides Theorem 3.3 by
an iterative Tarjan that tests fairness as it completes each SCC and
keeps no member lists.  A pass that miscounted, merged or split SCCs,
or lost a slot from an SCC's stepped mask, could still report "holds".
This module recomputes the same quantities with a small Kosaraju over
the same non-progress edge filter (two depth-first passes, nothing
shared with the checker) and compares: the partition, each SCC's
stepped mask and the hold/violate decision, with roots in ordinal order
and in a second order.  The graphs are every verify-role graph of at
most 15k states and hypothesis-drawn small graphs with two or three
slots, self-loops, progress edges and planted fair cycles.
"""

from typing import List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.problems import instances_with_role
from repro.runtime.compiled import CompiledBackend
from repro.runtime.exploration import explore
from repro.runtime.kernel import StepInstance
from repro.verify.liveness import (
    _deadlock_flags,
    _node_masks,
    _nonprogress_sccs,
    _solo_cycle,
)


class _Graph:
    """The fields the SCC pass reads, built from per-node edge lists of
    ``(slot, destination)`` pairs."""

    def __init__(self, nslots: int, edges: Sequence[Sequence[Tuple[int, int]]]):
        self.entries = [()] * nslots
        self.start: List[int] = []
        self.count: List[int] = []
        self.edge_slot: List[int] = []
        self.edge_dst: List[int] = []
        for out in edges:
            self.start.append(len(self.edge_dst))
            self.count.append(len(out))
            for slot, dst in out:
                self.edge_slot.append(slot)
                self.edge_dst.append(dst)

    def __len__(self) -> int:
        return len(self.start)


def _nonprogress_edges(graph, masks) -> List[List[Tuple[int, int]]]:
    """Per node, its ``(slot, destination)`` edges that do not enter a
    critical section: the stepping slot's bit is not clear at the source
    and set at the destination."""
    out: List[List[Tuple[int, int]]] = []
    for node in range(len(graph)):
        first = graph.start[node]
        kept = []
        for e in range(first, first + graph.count[node]):
            slot, dst = graph.edge_slot[e], graph.edge_dst[e]
            bit = 1 << slot
            if not (masks[dst] & bit and not masks[node] & bit):
                kept.append((slot, dst))
        out.append(kept)
    return out


def _kosaraju(succ: List[List[Tuple[int, int]]]) -> Tuple[List[int], List[List[int]]]:
    """Per node its component number, and the components' members."""
    n = len(succ)
    seen = [False] * n
    finished: List[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        frames = [(root, iter(succ[root]))]
        while frames:
            node, edges = frames[-1]
            for _, dst in edges:
                if not seen[dst]:
                    seen[dst] = True
                    frames.append((dst, iter(succ[dst])))
                    break
            else:
                frames.pop()
                finished.append(node)
    pred: List[List[int]] = [[] for _ in range(n)]
    for src, edges in enumerate(succ):
        for _, dst in edges:
            pred[dst].append(src)
    component = [-1] * n
    members: List[List[int]] = []
    for root in reversed(finished):
        if component[root] >= 0:
            continue
        number = len(members)
        component[root] = number
        found = [root]
        todo = [root]
        while todo:
            for src in pred[todo.pop()]:
                if component[src] < 0:
                    component[src] = number
                    found.append(src)
                    todo.append(src)
        members.append(found)
    return component, members


class _Reference:
    """Kosaraju's SCCs of the non-progress subgraph, each SCC's stepped
    mask and the fair non-progress test, from the definitions."""

    def __init__(self, graph, masks):
        self.nslots = len(graph.entries)
        succ = _nonprogress_edges(graph, masks)
        self.component, self.members = _kosaraju(succ)
        self.stepped = [0] * len(self.members)
        for src, edges in enumerate(succ):
            for slot, dst in edges:
                if self.component[src] == self.component[dst]:
                    self.stepped[self.component[src]] |= 1 << slot
        self.masks = masks

    def violates(self, number: int) -> bool:
        stepped = self.stepped[number]
        if not stepped:
            return False  # no cycle through the SCC
        members = self.members[number]
        live = self.masks[members[0]] >> 2 * self.nslots
        if not live or live & ~stepped:
            return False
        return any(self.masks[node] >> self.nslots & live for node in members)


def _without_trying(masks: List[int], nslots: int) -> List[int]:
    """The masks with every trying bit cleared, so no SCC can violate
    and the pass runs to the end."""
    keep = ~(((1 << nslots) - 1) << nslots)
    return [mask & keep for mask in masks]


def _assert_matches_reference(graph, masks, orders) -> bool:
    """Compare the pass with the reference under each root order;
    returns whether the graph holds a fair non-progress SCC."""
    nslots = len(graph.entries)
    reference = _Reference(graph, masks)
    full = _without_trying(masks, nslots)
    expected = [frozenset(members) for members in reference.members]
    for roots in orders:
        found = _nonprogress_sccs(graph, roots, full)
        assert found.violation is None
        assert found.count == len(reference.members)
        labels = [~label for label in found.component]
        assert all(0 <= label < found.count for label in labels)
        groups: List[List[int]] = [[] for _ in range(found.count)]
        for node, label in enumerate(labels):
            groups[label].append(node)
        assert sorted(map(sorted, groups)) == sorted(map(sorted, expected))
        for members, stepped in zip(reference.members, reference.stepped):
            got = 0
            for node in members:
                got |= found.inner[node]
            assert got == stepped, members
    violating = any(
        reference.violates(number) for number in range(len(reference.members))
    )
    for roots in orders:
        found = _nonprogress_sccs(graph, roots, masks)
        assert (found.violation is not None) == violating
        if found.violation is not None:
            number = reference.component[found.violation[0]]
            assert sorted(found.violation) == sorted(reference.members[number])
            assert reference.violates(number)
    return violating


def _live_trying(entry):
    """For automata without a critical section: no progress edges, and
    every live process counts as trying, so a fair cycle of live
    processes violates."""
    live = not (entry[2] or entry[3])
    return (False, live, live)


#: The verify-role instances whose graphs have at most 15k states: all
#: but Figure 1 at m=7, whose 57,563 SCCs the holding-detail pin in
#: test_liveness.py counts.
SMALL_VERIFY_GRAPHS = [
    (spec, inst)
    for spec, inst in instances_with_role("verify", include_mutants=True)
    if inst.label != "figure-1-mutex(m=7)"
]


@pytest.mark.parametrize(
    "spec, inst",
    SMALL_VERIFY_GRAPHS,
    ids=[inst.label for _, inst in SMALL_VERIFY_GRAPHS],
)
def test_verify_graphs_match_the_reference(spec, inst):
    system = spec.system(inst)
    graph = explore(
        system,
        spec.invariant,
        max_states=inst.verify_max_states,
        max_depth=inst.verify_max_states,
        retain_graph=True,
        backend=CompiledBackend(),
    ).graph
    assert len(graph) <= 15_000
    step = StepInstance.from_system(system)
    if any(prop.kind == "deadlock-freedom" for prop in spec.liveness):
        flags = _deadlock_flags(step)
        # Theorem 3.3 holds; the even-m mutant's livelock is seeded.
        expected = any(prop.expect_violation for prop in spec.liveness)
    else:
        flags = _live_trying
        # Obstruction-freedom allows livelock under contention.
        expected = True
    masks = _node_masks(graph, flags)
    assert _assert_matches_reference(
        graph, masks, [range(len(graph)), list(graph.iter_nodes())]
    ) == expected


@st.composite
def small_graphs(draw):
    """A graph of up to 10 nodes over 2 or 3 slots, its masks and a
    second root order.  Self-loops and progress edges come from the
    random edges and critical-section bits; a planted cycle, out of
    every critical section and with one trying node, makes fair
    non-progress SCCs common.  Live sets are drawn per SCC, as the
    monotone halted/crashed flags keep them in real graphs."""
    nslots = draw(st.integers(2, 3))
    n = draw(st.integers(1, 10))
    node = st.integers(0, n - 1)
    slots = (1 << nslots) - 1
    edges = [
        [(slot, draw(node)) for slot in range(nslots) if draw(st.booleans())]
        for _ in range(n)
    ]
    cs = draw(st.lists(st.integers(0, slots), min_size=n, max_size=n))
    trying = draw(st.lists(st.integers(0, slots), min_size=n, max_size=n))
    planted = draw(st.lists(node, max_size=6, unique=True))
    for i, src in enumerate(planted):
        edges[src].append((i % nslots, planted[(i + 1) % len(planted)]))
        cs[src] = 0
    if planted:
        trying[planted[0]] = slots
    graph = _Graph(nslots, edges)
    component, members = _kosaraju(_nonprogress_edges(graph, cs))
    live = draw(
        st.lists(st.integers(0, slots), min_size=len(members), max_size=len(members))
    )
    masks = [
        cs[v] | trying[v] << nslots | live[component[v]] << 2 * nslots
        for v in range(n)
    ]
    order = draw(st.permutations(range(n)))
    return graph, masks, order


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_small_graphs_match_the_reference(drawn):
    graph, masks, order = drawn
    _assert_matches_reference(graph, masks, [range(len(graph)), order])


def test_live_set_varying_inside_a_cycle_is_an_internal_error():
    # Two nodes on a cycle of both slots, the second with slot 1 halted.
    graph = _Graph(2, [[(0, 1)], [(1, 0)]])
    masks = [0b11 << 4, 0b01 << 4]
    with pytest.raises(RuntimeError, match="live set varies"):
        _nonprogress_sccs(graph, range(2), masks)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-1, n - 1), min_size=n, max_size=n),
            st.permutations(range(n)),
        )
    )
)
def test_solo_cycle_existence_does_not_depend_on_the_origin_order(drawn):
    solo, order = drawn
    n = len(solo)

    def settles(node):
        for _ in range(n + 1):
            if node < 0:
                return True
            node = solo[node]
        return False

    cycling = not all(settles(node) for node in range(n))
    for origins in (range(n), order):
        found = _solo_cycle(solo, origins)
        assert (found is not None) == cycling
        if found is not None:
            entry, length = found
            # ``length`` steps close the cycle, and no fewer do.
            node = entry
            for step in range(1, length + 1):
                node = solo[node]
                assert (node == entry) == (step == length)
