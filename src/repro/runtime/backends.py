"""Pluggable exploration backends over the value-state kernel.

PR 2 made the walk symmetry-reduced; this module makes it *retargetable*.
An :class:`ExplorationBackend` receives an :class:`ExplorationTask` — the
pure ``(instance, initial state, invariant, canonicalizer, budgets)``
value — and returns an
:class:`~repro.runtime.exploration.ExplorationResult`.  Nothing in a task
is live: no scheduler, no memory, no locks.  Two backends ship:

:class:`SerialBackend`
    The seed explorer's depth-first walk, re-expressed over
    :func:`~repro.runtime.kernel.step_value` instead of
    restore → step → capture on a shared scheduler.  Same visit order,
    same dedup rule, same acceleration, same counters — bit-identical
    results (the differential tests in
    ``tests/runtime/test_backends.py`` pin this) — but the system is
    never mutated and successor capture is free value passing.

:class:`ParallelBackend`
    A work-stealing walk over the batched packed-state engine
    (:mod:`repro.runtime.batched`).  The task is compiled once per
    process into dense transition tables
    (:func:`~repro.runtime.compiled.compile_program`); workers expand
    whole ``array('q')`` chunks of packed states through
    :meth:`~repro.runtime.compiled.CompiledProgram.expand_batch`, dedup
    cross-process through one ``multiprocessing.shared_memory``
    open-addressing visited table of 64-bit BLAKE2b digests
    (:mod:`repro.runtime.visited`), and steal chunks from a shared
    queue when their local stack runs dry.  Insert is CAS-free, so a
    racing pair of workers may expand the same state twice; the
    coordinator's canonical post-order merge dedups the records by
    state key, which restores determinism — complete runs agree with
    serial bit-for-bit on the verdict, state/event/stuck counters,
    peak visited size and (under ``retain_graph=True``) the retained
    ``StateGraph.to_bytes()``.  Runs truncated by a budget cut
    different under-approximations and agree on the verdict reached;
    the fixed-capacity visited table adds one honest truncation cause
    of its own, ``truncated_by="visited_table_full"``.  Violation
    schedules are rebuilt from the merged discovery records and
    re-validated by a pure replay before being reported, so they
    replay on a fresh system via
    :func:`repro.runtime.replay.replay_schedule` exactly like serial
    ones.  Tasks the compiler cannot enumerate fall back to
    :class:`SerialBackend` wholesale (``result.kernel`` stays
    ``"interpreted"`` and records the fallback honestly).

The executor pair (:class:`SerialExecutor` / :class:`ProcessExecutor`)
is the same idea one level up — a deterministic ``map`` used by the
sweep harness in :mod:`repro.analysis.experiments` to fan independent
(naming × adversary × seed) cells across cores.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from multiprocessing import get_context
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.errors import ConfigurationError
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

    A pure value: picklable, scheduler-free, reusable.  ``initial`` is
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
    #: Degree of parallelism (1 for serial backends).
    workers: int

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
    """Packs value states into a retained graph's ordinal layout.

    Interns register values and ``(pid, local, halted, crashed)`` slot
    entries by equality — the canonicalizer's digest memo keys them the
    same way — so a packed state is register-value indices followed by
    one entry index per slot.  The compiled kernel's states already are
    such tuples; the interpreted walk is the only producer that packs.
    """

    __slots__ = ("values", "value_index", "entries", "entry_index")

    def __init__(self, nslots: int) -> None:
        self.values: List[Any] = []
        self.value_index: Dict[Any, int] = {}
        self.entries: List[List[Tuple[ProcessId, Any, bool, bool]]] = [
            [] for _ in range(nslots)
        ]
        self.entry_index: List[Dict[Any, int]] = [{} for _ in range(nslots)]

    def pack(self, state: GlobalState) -> Tuple[int, ...]:
        registers, locals_part = state
        values, value_index = self.values, self.value_index
        packed: List[int] = []
        for value in registers:
            index = value_index.get(value)
            if index is None:
                index = value_index[value] = len(values)
                values.append(value)
            packed.append(index)
        for entries, entry_index, entry in zip(
            self.entries, self.entry_index, locals_part
        ):
            index = entry_index.get(entry)
            if index is None:
                index = entry_index[entry] = len(entries)
                entries.append(entry)
            packed.append(index)
        return tuple(packed)

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
    workers = 1

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

            packer = _StatePacker(len(initial[1]))
            builder = GraphBuilder(
                packer.values, packer.entries, packer.pack(initial)
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


# ---------------------------------------------------------------------------
# Parallel backend — work-stealing over the batched packed-state engine
# ---------------------------------------------------------------------------


class ParallelBackend:
    """Work-stealing exploration across ``multiprocessing`` workers.

    A thin front over :func:`repro.runtime.batched.run_work_stealing`
    (see the module docstring above and docs/EXPLORATION.md for the
    design).  Tasks the table compiler cannot enumerate fall back to
    :class:`SerialBackend` wholesale, exactly like
    :class:`~repro.runtime.compiled.CompiledBackend`; ``result.kernel``
    records which engine actually ran.

    Parameters
    ----------
    workers:
        Worker process count (>= 1).
    chunk_size:
        Packed states per work chunk — the work-distribution granule.
        Smaller chunks spread narrow state spaces across workers
        sooner; larger chunks amortise per-chunk overhead.  Any value
        yields identical merged results.
    table_capacity:
        Slot count of the shared visited table (power of two).  Default
        ``None`` sizes it from ``task.max_states`` via
        :func:`repro.runtime.visited.table_capacity`.  Runs that
        outgrow the table truncate honestly with
        ``truncated_by="visited_table_full"``.
    mp_context:
        ``multiprocessing`` start-method context; default is the
        platform default (``fork`` on Linux).
    """

    name = "parallel"

    def __init__(
        self,
        workers: int = 2,
        chunk_size: int = 512,
        table_capacity: Optional[int] = None,
        mp_context: Optional[Any] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"workers must be a positive int, got {workers!r}"
            )
        if chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be a positive int, got {chunk_size!r}"
            )
        self.workers = workers
        self.chunk_size = chunk_size
        self.table_capacity = table_capacity
        self._mp_context = mp_context

    def run(
        self,
        task: ExplorationTask,
        telemetry: TelemetrySink = NULL_TELEMETRY,
    ) -> ExplorationResult:
        # Imported lazily: batched -> compiled -> this module.
        from repro.runtime.batched import NotCompilable, run_work_stealing
        from repro.runtime.canonical import TrivialCanonicalizer

        if task.retain_graph and not isinstance(
            task.canonicalizer, TrivialCanonicalizer
        ):
            # explore() rejects this combination; a hand-built task
            # gets the serial behaviour verbatim.
            return SerialBackend().run(task, telemetry=telemetry)
        try:
            result = run_work_stealing(
                task,
                self.workers,
                telemetry=telemetry,
                chunk_size=self.chunk_size,
                mp_context=self._mp_context,
                capacity=self.table_capacity,
            )
        except NotCompilable:
            return SerialBackend().run(task, telemetry=telemetry)
        if result.violation is not None and result.violation_schedule is not None:
            _validate_schedule(task, result.violation_schedule, result.violation)
        return result


def _validate_schedule(
    task: ExplorationTask, schedule: Tuple[ProcessId, ...], message: str
) -> None:
    """Pure replay of a reconstructed schedule; guards the merge logic.

    O(schedule length), run once per reported violation.  A mismatch
    means the parent links were assembled wrong — an internal error, not
    a property of the algorithm under test — so it raises instead of
    returning a corrupt counterexample.
    """
    state = task.initial
    for pid in schedule:
        state = step_value(task.instance, state, pid)
    replayed = task.invariant(StateView(task.instance, state))
    if replayed != message:
        raise RuntimeError(
            "parallel backend produced a schedule that does not replay its "
            f"violation: expected {message!r}, replay gave {replayed!r}"
        )


# ---------------------------------------------------------------------------
# Executors — the same serial/parallel choice for independent sweep cells
# ---------------------------------------------------------------------------

_T = TypeVar("_T")
_R = TypeVar("_R")


class SerialExecutor:
    """In-process ordered ``map`` — the default sweep executor.

    ``initializer`` (if given) runs once in this process before the
    map, mirroring the pool-initializer contract of
    :class:`ProcessExecutor` so callers plant per-process payloads the
    same way under either executor.
    """

    name = "serial"
    workers = 1

    def map(
        self,
        fn: Callable[[_T], _R],
        items: Sequence[_T],
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
    ) -> List[_R]:
        if initializer is not None:
            initializer(*initargs)
        return [fn(item) for item in items]


class ProcessExecutor:
    """Ordered ``map`` over a ``multiprocessing`` pool.

    Results come back in submission order regardless of completion
    order, so swapping this in for :class:`SerialExecutor` never changes
    a sweep's output — only its wall time.  ``fn`` must be a module
    -level function and items/results picklable; under the default
    ``fork`` start method the ``initializer`` payload is inherited
    rather than pickled, so it may close over anything.
    """

    name = "process"

    def __init__(
        self, workers: int = 2, mp_context: Optional[Any] = None
    ) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"workers must be a positive int, got {workers!r}"
            )
        self.workers = workers
        self._mp_context = mp_context

    def map(
        self,
        fn: Callable[[_T], _R],
        items: Sequence[_T],
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
    ) -> List[_R]:
        items = list(items)
        if not items:
            return []
        context = self._mp_context or get_context()
        with context.Pool(
            self.workers, initializer=initializer, initargs=initargs
        ) as pool:
            return pool.map(fn, items)


def resolve_backend(
    spec: str, workers: Optional[int] = None
) -> ExplorationBackend:
    """Build a backend from a CLI-style spec
    (``"serial"``/``"parallel"``/``"compiled"``)."""
    if spec == "serial":
        return SerialBackend()
    if spec == "parallel":
        return ParallelBackend(workers=workers or 2)
    if spec == "compiled":
        # Imported here: compiled.py imports this module at the top.
        from repro.runtime.compiled import CompiledBackend

        return CompiledBackend()
    raise ConfigurationError(
        f"unknown exploration backend {spec!r}; "
        "expected 'serial', 'parallel' or 'compiled'"
    )


class SweepExecutor(Protocol):
    """The ordered-``map`` interface :func:`repro.analysis.experiments.sweep`
    fans its cells out over (satisfied by :class:`SerialExecutor` and
    :class:`ProcessExecutor`)."""

    name: str
    workers: int

    def map(
        self,
        fn: Callable[[_T], _R],
        items: Sequence[_T],
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
    ) -> List[_R]:
        """Apply ``fn`` to every item, preserving submission order."""
        ...


def resolve_executor(
    spec: Union[str, SweepExecutor], workers: Optional[int] = None
) -> SweepExecutor:
    """Build a sweep executor from a spec.

    Accepts the backend vocabulary as strings — ``"serial"`` →
    :class:`SerialExecutor`, ``"process"`` → :class:`ProcessExecutor` —
    or passes an executor instance (anything with a ``map``) through
    unchanged, so ``sweep(backend=...)`` takes either spelling.
    """
    if isinstance(spec, str):
        if spec == "serial":
            return SerialExecutor()
        if spec == "process":
            return ProcessExecutor(workers=workers or 2)
        raise ConfigurationError(
            f"unknown sweep backend {spec!r}; expected 'serial' or 'process'"
        )
    if not hasattr(spec, "map"):
        raise ConfigurationError(
            f"sweep backend must be 'serial', 'process' or an executor "
            f"with a map() method, got {spec!r}"
        )
    return spec
