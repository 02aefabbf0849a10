"""Pluggable exploration backends over the value-state kernel.

The canonicalizer (:mod:`repro.runtime.canonical`) decides which states
a walk deduplicates; this module decides which step kernel walks them.
An :class:`ExplorationBackend` receives an :class:`ExplorationTask` — the
pure ``(instance, initial state, invariant, canonicalizer, budgets)``
value — and returns an
:class:`~repro.runtime.exploration.ExplorationResult`.  Nothing in a task
is live: no scheduler, no memory, no locks.  Two backends ship, one per
step kernel (``explore(kernel=...)`` picks between them):

:class:`SerialBackend`
    The interpreted kernel: the seed explorer's depth-first walk,
    re-expressed over :func:`~repro.runtime.kernel.step_value` instead
    of restore → step → capture on a shared scheduler.  Same visit
    order, same dedup rule, same acceleration, same counters —
    bit-identical results (the differential tests in
    ``tests/runtime/test_exploration_differential.py`` pin this) — but
    the system is never mutated and successor capture is free value
    passing.

:class:`~repro.runtime.compiled.CompiledBackend`
    The compiled kernel: the same walk over table-compiled transitions
    (:mod:`repro.runtime.compiled`), bit-identical to
    :class:`SerialBackend` and falling back to it wholesale on tasks
    the table compiler cannot enumerate.

Both walk in the calling process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

from repro.obs.telemetry import NULL_TELEMETRY, TelemetrySink
from repro.runtime.canonical import (
    Canonicalizer,
    CanonicalKey,
    PackedDigestTables,
)
from repro.runtime.exploration import ExplorationResult
from repro.runtime.kernel import (
    GlobalState,
    StateView,
    StepInstance,
    all_settled,
    enabled_pids,
    step_value,
)
from repro.types import ProcessId

#: An invariant over the duck-typed system surface (live ``System`` or
#: value :class:`~repro.runtime.kernel.StateView`).
Invariant = Callable[[Any], Optional[str]]


@dataclass
class ExplorationTask:
    """Everything a backend needs to run one bounded exploration.

    A pure value: scheduler-free and reusable.  ``initial`` is
    the state the walk starts from (usually the system's initial state);
    the canonicalizer supplies the dedup keys and must have been built
    for the same instance.
    """

    instance: StepInstance
    initial: GlobalState
    invariant: Invariant
    canonicalizer: Canonicalizer
    max_states: int
    max_depth: int
    #: Retain the full labelled successor relation as a
    #: :class:`~repro.verify.graph.StateGraph` on the result.  Only
    #: sound under a trivial canonicalizer (``explore()`` enforces
    #: this); see :mod:`repro.verify.graph` for why.
    retain_graph: bool = False


class ExplorationBackend(Protocol):
    """The strategy interface :func:`repro.runtime.exploration.explore`
    delegates the actual walk to."""

    #: Short name recorded in results and benchmark records.
    name: str

    def run(
        self,
        task: ExplorationTask,
        telemetry: TelemetrySink = NULL_TELEMETRY,
    ) -> ExplorationResult:
        """Explore ``task`` and return the outcome.

        ``telemetry`` is an optional observability hook; backends must
        produce identical results whether it is the null sink or a
        recording one (telemetry observes the walk, never steers it).
        """
        ...


# ---------------------------------------------------------------------------
# Serial backend — the seed DFS over value states
# ---------------------------------------------------------------------------


class _StatePacker:
    """Packs value states into a retained graph's node ints.

    Interns register values and ``(pid, local, halted, crashed)`` slot
    entries by equality — the canonicalizer's digest memo keys them the
    same way — and packs the indices into one int: slot ``s``'s entry in
    field ``s``, then register ``j``'s value in field ``nslots + j``,
    each ``FIELD_BITS`` wide whatever the walk reaches, so no node is
    ever re-encoded.  The compiled kernel's states already are such ints
    (in narrower fields); the interpreted walk is the only producer that
    packs.
    """

    #: Width of every field: no walk interns 2**32 components.
    FIELD_BITS = 32

    __slots__ = ("values", "value_index", "entries", "entry_index", "layout")

    def __init__(self, m: int, nslots: int) -> None:
        self.values: List[Any] = []
        self.value_index: Dict[Any, int] = {}
        self.entries: List[List[Tuple[ProcessId, Any, bool, bool]]] = [
            [] for _ in range(nslots)
        ]
        self.entry_index: List[Dict[Any, int]] = [{} for _ in range(nslots)]
        bits = self.FIELD_BITS
        self.layout = (
            tuple(bits * (nslots + j) for j in range(m))
            + tuple(bits * s for s in range(nslots)),
            ((1 << bits) - 1,) * (m + nslots),
        )

    def pack(self, state: GlobalState) -> int:
        registers, locals_part = state
        bits = self.FIELD_BITS
        values, value_index = self.values, self.value_index
        packed = 0
        # Highest field first: the last register, down to slot 0.
        for value in reversed(registers):
            index = value_index.get(value)
            if index is None:
                index = value_index[value] = len(values)
                values.append(value)
            packed = packed << bits | index
        for entries, entry_index, entry in zip(
            reversed(self.entries), reversed(self.entry_index), reversed(locals_part)
        ):
            index = entry_index.get(entry)
            if index is None:
                index = entry_index[entry] = len(entries)
                entries.append(entry)
            packed = packed << bits | index
        return packed

    def digests(self, canonicalizer: Canonicalizer) -> PackedDigestTables:
        """Raw digests of every interned component, from the walk's own
        canonicalizer memo.  A slot's crashed flag is the same in all
        its entries: no step changes it."""
        return canonicalizer.packed_digest_tables(
            self.values,
            [[entry[1] for entry in row] for row in self.entries],
            [[entry[2] for entry in row] for row in self.entries],
            [row[0][3] for row in self.entries],
        )


class SerialBackend:
    """Depth-first search over value states; the reference semantics.

    Visit order, deduplication, inert-self-loop acceleration, budget
    handling and all counters match the historical scheduler-mutating
    explorer exactly — only the mechanics changed (pure
    :func:`~repro.runtime.kernel.step_value` transitions instead of
    restore/step/capture, :class:`~repro.runtime.kernel.StateView`
    invariant evaluation instead of a live system).
    """

    name = "serial"

    #: Emit one progress event per this many popped states (power of
    #: two: the hot-loop check is a single mask).  Class attribute so
    #: tests can lower it to exercise the progress path on toy walks.
    progress_interval = 8192

    def run(
        self,
        task: ExplorationTask,
        telemetry: TelemetrySink = NULL_TELEMETRY,
    ) -> ExplorationResult:
        instance = task.instance
        canonicalizer = task.canonicalizer
        invariant = task.invariant
        max_states = task.max_states
        max_depth = task.max_depth
        slot_of = instance.slot_of
        # Hoisted once: with the null sink the per-state telemetry cost
        # is a single short-circuited local-bool test.
        emit = telemetry.enabled
        progress_mask = self.progress_interval - 1

        initial = task.initial
        initial_key, initial_raw = canonicalizer.key_of_state(initial)
        builder = None
        if task.retain_graph:
            # Imported lazily: repro.verify sits above the runtime layer.
            from repro.verify.graph import GraphBuilder

            packer = _StatePacker(len(initial[0]), len(initial[1]))
            builder = GraphBuilder(
                packer.values, packer.entries, packer.pack(initial), packer.layout
            )
        #: canonical key -> raw key of the representative that claimed it.
        visited: Dict[CanonicalKey, CanonicalKey] = {initial_key: initial_raw}
        # Each frame: (state, depth, parent link, raw key, graph
        # ordinal).  The link is a structure-sharing chain (parent_link,
        # pid) so path reconstruction costs O(depth) only when a
        # violation is found; the ordinal is 0 unless retaining.
        stack: List[
            Tuple[GlobalState, int, Optional[Tuple[Any, ProcessId]], bytes, int]
        ] = [(initial, 0, None, initial_raw, 0)]
        result = ExplorationResult(
            complete=True,
            states_explored=0,
            events_executed=0,
            max_depth_reached=0,
            group_size=canonicalizer.group_order,
        )
        started = time.perf_counter()

        def unwind(
            link: Optional[Tuple[Any, ProcessId]]
        ) -> Tuple[ProcessId, ...]:
            path: List[ProcessId] = []
            while link is not None:
                link, pid = link
                path.append(pid)
            return tuple(reversed(path))

        while stack:
            state, depth, link, state_raw, ordinal = stack.pop()
            result.states_explored += 1
            if depth > result.max_depth_reached:
                result.max_depth_reached = depth
            if emit and not (result.states_explored & progress_mask):
                telemetry.gauge("explore.visited", len(visited))
                telemetry.gauge("explore.frontier", len(stack))
                telemetry.event(
                    "explore.progress",
                    states=result.states_explored,
                    frontier=len(stack),
                    visited=len(visited),
                    orbit_hits=result.orbits_collapsed,
                    depth=depth,
                )

            violation = invariant(StateView(instance, state))
            if violation is not None:
                result.violation = violation
                result.violation_schedule = unwind(link)
                result.truncated_by = "violation"
                break

            enabled = enabled_pids(instance, state)
            if not enabled:
                if not all_settled(state):
                    result.stuck_states += 1
                if builder is not None:
                    builder.expand(ordinal)
                continue

            if depth >= max_depth:
                result.truncated_by = "max_depth"
                continue

            if builder is not None:
                builder.expand(ordinal)
            budget_exhausted = False
            for pid in enabled:
                child = step_value(instance, state, pid)
                result.events_executed += 1
                key, raw = canonicalizer.key_of_state(child)
                step_link: Tuple[Any, ProcessId] = (link, pid)
                if raw == state_raw:
                    # Inert self-loop: the step changed nothing the
                    # canonicalizer records — no memory effect, identical
                    # footprints and flags — so the successor is
                    # bisimilar to the popped state and its steps commute
                    # with every other process.  Accelerate: keep
                    # stepping this process until something observable
                    # changes; only that exit state is a new quotient
                    # edge.  A repeated local state inside the loop is a
                    # genuine livelock within the class — nothing new is
                    # reachable.
                    slot = slot_of[pid]
                    seen_locals = {child[1][slot][1]}
                    while raw == state_raw and not (
                        child[1][slot][2] or child[1][slot][3]
                    ):
                        child = step_value(instance, child, pid)
                        result.events_executed += 1
                        step_link = (step_link, pid)
                        key, raw = canonicalizer.key_of_state(child)
                        local = child[1][slot][1]
                        if raw == state_raw:
                            if local in seen_locals:
                                break
                            seen_locals.add(local)
                    if raw == state_raw:
                        # A genuine single-step self-loop: under the
                        # trivial canonicalizer ``raw == state_raw`` on
                        # the *first* step already means the successor
                        # equals the popped state, so the loop above
                        # exits immediately and the retained edge is the
                        # one-step ``(pid, src)`` the liveness analyses
                        # need (a solo livelock in the making).
                        if builder is not None:
                            builder.edge(slot_of[pid], ordinal)
                        continue
                child_ordinal = 0
                if builder is not None:
                    child_ordinal = builder.node(packer.pack(child))
                    builder.edge(slot_of[pid], child_ordinal)
                claimed = visited.get(key)
                if claimed is not None:
                    if claimed != raw:
                        result.orbits_collapsed += 1
                    continue
                if len(visited) >= max_states:
                    result.truncated_by = "max_states"
                    budget_exhausted = True
                    break
                visited[key] = raw
                stack.append((child, depth + 1, step_link, raw, child_ordinal))
            if budget_exhausted:
                break

        result.complete = result.truncated_by is None
        result.wall_seconds = time.perf_counter() - started
        result.peak_visited = len(visited)
        if builder is not None:
            result.graph = builder.finish(
                packer.digests(canonicalizer), result.complete
            )
        if emit:
            telemetry.gauge("explore.visited", len(visited))
            telemetry.gauge("explore.frontier", len(stack))
            telemetry.count("explore.events", result.events_executed)
            telemetry.count("explore.orbit_hits", result.orbits_collapsed)
        return result
