"""Work-stealing batched exploration engine — the parallel core.

:class:`~repro.runtime.backends.ParallelBackend` delegates here.  The
engine replaces the old level-synchronised frontier-batch design
(pickle the frontier out, pickle results back, merge, repeat) with
three cooperating pieces:

* **Batched packed expansion.**  Workers hold states as flat
  ``array('q')`` chunks and expand whole chunks through
  :meth:`~repro.runtime.compiled.CompiledProgram.expand_batch`, with
  per-batch digest assembly via
  :meth:`~repro.runtime.canonical.PackedDigestTables.batch_raw` /
  :meth:`~repro.runtime.canonical.PackedDigestTables.batch_keys`.

* **A shared-memory visited table.**  Cross-process dedup goes through
  one :class:`~repro.runtime.visited.SharedVisitedTable` — a
  fixed-capacity open-addressing hash set of 64-bit BLAKE2b digests in
  a ``multiprocessing.shared_memory`` segment.  Insert is CAS-free:
  two workers racing on the same slot can both see "new" and expand
  the state twice.  That duplicate work is benign — expansion is
  deterministic per state, and the coordinator's canonical post-order
  merge dedups records by state key.  Overflow is honest:
  ``truncated_by="visited_table_full"``.

* **Work stealing.**  Each worker keeps a small local stack of chunks
  and donates surplus to one shared queue; idle workers steal from it.
  A shared ``pending`` chunk counter provides quiescence detection
  (children are registered before their parent chunk is released, so
  ``pending == 0`` really means the space is drained).

Determinism contract (pinned by the differential tests): on complete
runs the merged ``states_explored`` / ``events_executed`` /
``stuck_states`` / ``peak_visited`` — and, under the trivial
canonicalizer with ``retain_graph=True``, the rebuilt
``StateGraph.to_bytes()`` — are byte-identical to ``SerialBackend``.
Per-state event counts are state-local (inert self-loop = 2 events,
ordinary step = 1), so their sum over the deduped record set is
schedule-independent; the graph is rebuilt by re-expanding the merged
record set in the instance's pid order, and ``StateGraph.to_bytes()``
sorts node keys, so discovery order is immaterial.  On *truncated*
runs the explored subset (and therefore the counters) may differ from
serial, exactly as docs/EXPLORATION.md documents.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import signal
import time
from array import array
from collections import deque
from hashlib import blake2b
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.telemetry import NULL_TELEMETRY, TelemetrySink
from repro.runtime.canonical import TrivialCanonicalizer
from repro.runtime.compiled import (
    CompiledProgram,
    compile_checker,
    compile_program,
)
from repro.runtime.exploration import ExplorationResult
from repro.runtime.visited import (
    SEGMENT_PREFIX,
    SharedVisitedTable,
    VisitedTableFull,
    table_capacity,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.backends import ExplorationTask

__all__ = ["DEFAULT_CHUNK_SIZE", "NotCompilable", "run_work_stealing"]

#: Packed states per work chunk; the work-distribution granule.
DEFAULT_CHUNK_SIZE = 512

# Expansion-record flags.
_FLAG_EXPANDED = 0
_FLAG_TERMINAL = 1  # no enabled slot: counted, never expanded
_FLAG_CAPPED = 2  # live but at max_depth: counted, pruned

# Shared abort codes, ordered by priority (upgrades only).
_ABORT_NONE = 0
_ABORT_MAX_STATES = 1
_ABORT_TABLE_FULL = 2
_ABORT_VIOLATION = 3
_ABORT_ERROR = 4

#: Chunks a worker keeps on its local stack before donating to the
#: shared steal queue.
_LOCAL_KEEP = 2

#: Idle poll interval while waiting for stealable work.
_IDLE_SLEEP = 0.0005


class NotCompilable(Exception):
    """The task cannot run on the batched engine (compilation overflow
    or a canonicalizer without packed digest tables); the caller falls
    back to the serial interpreter wholesale."""


def _digest64(key: bytes) -> int:
    """The visited-table digest of a canonical state key."""
    return int.from_bytes(blake2b(key, digest_size=8).digest(), "big")


def _set_abort(abort: Any, code: int) -> None:
    """Raise the shared abort code to ``code`` (upgrades only)."""
    with abort.get_lock():
        if code > abort.value:
            abort.value = code


def _sigterm_handler(signum: int, frame: Any) -> None:
    # Default SIGTERM disposition kills the process without running
    # ``finally`` blocks, leaking the /dev/shm segment; converting the
    # signal into SystemExit lets the coordinator unlink on the way out.
    raise SystemExit(143)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _worker_main(
    worker_id: int,
    task: "ExplorationTask",
    chunk_size: int,
    shm_name: str,
    capacity: int,
    steal_q: Any,
    result_q: Any,
    pending: Any,
    inserted: Any,
    abort: Any,
) -> None:
    """Worker process entry point: drain chunks until quiescence/abort.

    The result payload is posted to ``result_q`` **last**, after the
    shared segment is closed — the coordinator treats its arrival as
    this worker's clean exit.
    """
    started = time.perf_counter()
    log: Dict[str, Any] = {
        "worker": worker_id,
        "error": None,
        "violations": [],
        "exp_key": [],
        "exp_events": array("q"),
        "exp_depth": array("q"),
        "exp_flags": array("q"),
        "exp_packed": array("q"),
        "disc_key": [],
        "disc_child": array("q"),
        "disc_parent": array("q"),
        "disc_path": [],
        "counters": {
            "chunks": 0,
            "states": 0,
            "steals": 0,
            "donated": 0,
            "inserted": 0,
            "duplicates": 0,
        },
    }
    table: Optional[SharedVisitedTable] = None
    try:
        table = SharedVisitedTable.attach(shm_name, capacity)
        _worker_loop(
            task, chunk_size, table, steal_q, pending, inserted, abort, log
        )
    except Exception as error:
        _set_abort(abort, _ABORT_ERROR)
        log["error"] = error
    finally:
        if table is not None:
            table.close()
        log["counters"]["seconds"] = time.perf_counter() - started
        try:
            payload = pickle.dumps(log, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            # An unpicklable hook exception; degrade to its repr so the
            # coordinator still learns the worker failed.
            log["error"] = RuntimeError(
                f"worker {worker_id} raised an unpicklable exception: "
                f"{log['error']!r}"
            )
            payload = pickle.dumps(log, protocol=pickle.HIGHEST_PROTOCOL)
        result_q.put(payload)


def _worker_loop(
    task: "ExplorationTask",
    chunk_size: int,
    table: SharedVisitedTable,
    steal_q: Any,
    pending: Any,
    inserted: Any,
    abort: Any,
    log: Dict[str, Any],
) -> None:
    # Compile locally: deterministic, and cheaper than pickling the
    # dense tables through the process boundary.  The coordinator
    # already proved the task compilable before spawning.  Closing the
    # tables numbers local states as the coordinator's close did, and
    # the digest tables below need every one.
    program = compile_program(task.instance, task.initial)
    program.close()
    checker = compile_checker(task.invariant, program)
    canonicalizer = task.canonicalizer
    tables = canonicalizer.packed_digest_tables(
        program.values, program.states, program.halted, program.crashed
    )
    trivial = isinstance(canonicalizer, TrivialCanonicalizer)

    m = program.m
    nslots = len(program.slots)
    stride = m + nslots
    max_states = task.max_states
    max_depth = task.max_depth
    live = program.live_tables()
    expand_batch = program.expand_batch
    step_packed = program.step_packed
    batch_raw = tables.batch_raw
    batch_keys = tables.batch_keys
    halted = program.halted
    crashed = program.crashed
    insert = table.insert

    exp_key: List[bytes] = log["exp_key"]
    exp_events = log["exp_events"]
    exp_depth = log["exp_depth"]
    exp_flags = log["exp_flags"]
    exp_packed = log["exp_packed"]
    disc_key: List[bytes] = log["disc_key"]
    disc_child = log["disc_child"]
    disc_parent = log["disc_parent"]
    disc_path: List[Tuple[int, ...]] = log["disc_path"]
    violations: List[Tuple[int, Tuple[int, ...], str]] = log["violations"]
    counters: Dict[str, int] = log["counters"]

    local: List[Tuple[Any, Any]] = []
    pending_inserts = 0

    def flush_inserts() -> None:
        nonlocal pending_inserts
        if not pending_inserts:
            return
        with inserted.get_lock():
            inserted.value += pending_inserts
            total = inserted.value
        pending_inserts = 0
        # visited-equivalent count is inserted children + the initial
        # state; serial truncates when a new child would make it exceed
        # the budget.
        if total >= max_states:
            _set_abort(abort, _ABORT_MAX_STATES)

    def single_key(packed: Tuple[int, ...]) -> Tuple[bytes, bytes]:
        return batch_keys(packed, m)[0]

    def process_chunk(depths: Any, states: Any) -> List[Tuple[Any, Any]]:
        nonlocal pending_inserts
        n = len(depths)
        counters["states"] += n
        parent_keys: List[bytes]
        parent_raws: List[bytes]
        if trivial:
            parent_raws = batch_raw(states, m)
            parent_keys = parent_raws
        else:
            pairs = batch_keys(states, m)
            parent_keys = [k for k, _ in pairs]
            parent_raws = [r for _, r in pairs]
        batch = array("q")
        batch_rec: List[int] = []  # batch row -> exp record index
        batch_i: List[int] = []  # batch row -> chunk state index
        for i in range(n):
            base = i * stride
            st = states[base : base + stride]
            message = checker(st)
            if message is not None:
                violations.append((depths[i], tuple(st), message))
                _set_abort(abort, _ABORT_VIOLATION)
                continue
            alive = False
            for s in range(nslots):
                if live[s][st[m + s]]:
                    alive = True
                    break
            if alive and depths[i] < max_depth:
                batch_rec.append(len(exp_key))
                batch_i.append(i)
                flag = _FLAG_EXPANDED
            else:
                flag = _FLAG_TERMINAL if not alive else _FLAG_CAPPED
            exp_key.append(parent_keys[i])
            exp_events.append(0)
            exp_depth.append(depths[i])
            exp_flags.append(flag)
            exp_packed.extend(st)
            if flag == _FLAG_EXPANDED:
                batch.extend(st)
        if not len(batch):
            return []
        children, edges = expand_batch(batch)
        child_keys: List[bytes] = []
        child_pairs: List[Tuple[bytes, bytes]] = []
        if trivial:
            child_keys = batch_raw(children, m)
        else:
            child_pairs = batch_keys(children, m)
        new_depths = array("q")
        new_states = array("q")
        ci = 0
        for t in range(0, len(edges), 3):
            brow = edges[t]
            slot = edges[t + 1]
            rec = batch_rec[brow]
            if edges[t + 2]:
                # Inert single-step self-loop: serial costs exactly 2
                # events (step + deterministic repeat) and no new state.
                exp_events[rec] += 2
                continue
            cbase = ci * stride
            ci += 1
            exp_events[rec] += 1
            path_len = 1
            child_tuple: Optional[Tuple[int, ...]] = None
            if trivial:
                key = child_keys[ci - 1]
            else:
                key, raw = child_pairs[ci - 1]
                parent_raw = parent_raws[batch_i[brow]]
                if raw == parent_raw:
                    # Inert acceleration, exactly as serial: keep
                    # stepping this pid while it stays inert, watching
                    # its packed local index for a repeat.
                    child = tuple(children[cbase : cbase + stride])
                    off = m + slot
                    seen_locals = {child[off]}
                    while raw == parent_raw and not (
                        halted[slot][child[off]] or crashed[slot]
                    ):
                        child = step_packed(child, slot)
                        path_len += 1
                        exp_events[rec] += 1
                        key, raw = single_key(child)
                        if raw == parent_raw:
                            local_si = child[off]
                            if local_si in seen_locals:
                                break
                            seen_locals.add(local_si)
                    if raw == parent_raw:
                        continue  # never escaped the self-loop
                    child_tuple = child
            if insert(_digest64(key)):
                pending_inserts += 1
                counters["inserted"] += 1
                disc_key.append(key)
                disc_parent.append(rec)
                disc_path.append((slot,) * path_len)
                if child_tuple is None:
                    seg = children[cbase : cbase + stride]
                    disc_child.extend(seg)
                    new_states.extend(seg)
                else:
                    disc_child.extend(child_tuple)
                    new_states.extend(child_tuple)
                new_depths.append(depths[batch_i[brow]] + 1)
            else:
                counters["duplicates"] += 1
        out: List[Tuple[Any, Any]] = []
        for start in range(0, len(new_depths), chunk_size):
            out.append(
                (
                    new_depths[start : start + chunk_size],
                    new_states[
                        start * stride : (start + chunk_size) * stride
                    ],
                )
            )
        return out

    while True:
        if abort.value:
            break
        if local:
            depths, states = local.pop()
        else:
            try:
                dmsg, smsg = steal_q.get_nowait()
            except queue.Empty:
                with pending.get_lock():
                    remaining = pending.value
                if remaining == 0:
                    break
                time.sleep(_IDLE_SLEEP)
                continue
            counters["steals"] += 1
            depths = array("q")
            depths.frombytes(dmsg)
            states = array("q")
            states.frombytes(smsg)
        counters["chunks"] += 1
        try:
            produced = process_chunk(depths, states)
        except VisitedTableFull:
            _set_abort(abort, _ABORT_TABLE_FULL)
            produced = []
        # Register children before releasing the consumed chunk so
        # pending == 0 is a true quiescence witness.
        with pending.get_lock():
            pending.value += len(produced) - 1
        flush_inserts()
        for item in produced:
            if len(local) < _LOCAL_KEEP:
                local.append(item)
            else:
                steal_q.put((item[0].tobytes(), item[1].tobytes()))
                counters["donated"] += 1


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


def run_work_stealing(
    task: "ExplorationTask",
    workers: int,
    telemetry: TelemetrySink = NULL_TELEMETRY,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    mp_context: Any = None,
    capacity: Optional[int] = None,
) -> ExplorationResult:
    """Run ``task`` on ``workers`` work-stealing processes.

    Raises :class:`NotCompilable` when the task cannot be compiled (the
    caller falls back to the serial interpreter) and re-raises genuine
    worker exceptions (invariant/hook errors) unchanged.
    """
    started = time.perf_counter()
    ctx = mp_context if mp_context is not None else multiprocessing.get_context()
    canonicalizer = task.canonicalizer
    trivial = isinstance(canonicalizer, TrivialCanonicalizer)
    with telemetry.phase("parallel.compile"):
        try:
            program = compile_program(task.instance, task.initial)
            program.close()
            compile_checker(task.invariant, program)
            tables = canonicalizer.packed_digest_tables(
                program.values,
                program.states,
                program.halted,
                program.crashed,
            )
        except Exception as exc:
            raise NotCompilable(str(exc)) from exc
    m = program.m
    initial = program.initial_packed
    if trivial:
        initial_key = tables.batch_raw(initial, m)[0]
    else:
        initial_key = tables.batch_keys(initial, m)[0][0]
    if capacity is None:
        capacity = table_capacity(task.max_states)
    procs: List[Any] = []
    previous_handler: Any = None
    handler_installed = False
    # The SIGTERM handler goes in BEFORE the segment exists: a kill
    # landing between the two would otherwise die with the default
    # disposition and leak the table.
    try:
        previous_handler = signal.signal(signal.SIGTERM, _sigterm_handler)
        handler_installed = True
    except ValueError:
        pass  # not the main thread: the caller owns signal disposition
    table: Optional[SharedVisitedTable] = None
    steal_q: Any = None
    try:
        table = SharedVisitedTable.create(
            capacity, SEGMENT_PREFIX + os.urandom(8).hex()
        )
        steal_q = ctx.Queue()
        result_q = ctx.Queue()
        pending = ctx.Value("q", 0)
        inserted = ctx.Value("q", 0)
        abort = ctx.Value("b", 0)
        table.insert(_digest64(initial_key))
        pending.value = 1
        steal_q.put(
            (array("q", [0]).tobytes(), array("q", initial).tobytes())
        )
        with telemetry.phase("parallel.explore"):
            for wid in range(workers):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        wid,
                        task,
                        chunk_size,
                        table.name,
                        capacity,
                        steal_q,
                        result_q,
                        pending,
                        inserted,
                        abort,
                    ),
                    daemon=True,
                )
                proc.start()
                procs.append(proc)
            logs = _collect(procs, result_q, steal_q, workers)
            for proc in procs:
                while proc.is_alive():
                    proc.join(timeout=0.05)
                    _drain(steal_q)
        with telemetry.phase("parallel.merge"):
            result = _merge(
                task, program, tables, trivial, logs, abort.value, telemetry
            )
        result.kernel = "compiled"
        result.wall_seconds = time.perf_counter() - started
        return result
    finally:
        if handler_installed:
            signal.signal(signal.SIGTERM, previous_handler)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        if steal_q is not None:
            _drain(steal_q)
        if table is not None:
            table.close()
            table.unlink()


def _drain(q: Any) -> None:
    """Best-effort non-blocking drain (unblocks worker queue feeders)."""
    while True:
        try:
            q.get_nowait()
        except queue.Empty:
            return
        except (OSError, ValueError):  # queue torn down mid-drain
            return


def _collect(
    procs: List[Any], result_q: Any, steal_q: Any, workers: int
) -> List[Dict[str, Any]]:
    """Gather one result payload per worker, detecting workers that died
    without reporting.

    The steal queue is deliberately **not** touched here: a chunk taken
    by the coordinator mid-run would vanish without its ``pending``
    count ever being released, stalling every worker's quiescence check
    forever.  Leftover chunks (abort paths) are drained only after the
    payloads are in, when no worker will look for work again — that
    late drain is what unblocks worker queue-feeder threads so the
    processes can exit.
    """
    logs: List[Dict[str, Any]] = []
    posted: set = set()
    deadline: Optional[float] = None
    while len(posted) < workers:
        try:
            log = pickle.loads(result_q.get(timeout=0.05))
            posted.add(log["worker"])
            logs.append(log)
            deadline = None
            continue
        except queue.Empty:
            pass
        dead = [
            wid
            for wid, proc in enumerate(procs)
            if wid not in posted and not proc.is_alive()
        ]
        if dead:
            # Give an exited worker's queued payload a grace window to
            # arrive before declaring it lost.
            if deadline is None:
                deadline = time.monotonic() + 5.0
            elif time.monotonic() > deadline:
                codes = {wid: procs[wid].exitcode for wid in dead}
                raise RuntimeError(
                    "parallel worker(s) died without reporting a "
                    f"result: exit codes {codes}"
                )
    logs.sort(key=lambda entry: entry["worker"])
    return logs


# ---------------------------------------------------------------------------
# Canonical post-order merge
# ---------------------------------------------------------------------------


def _merge(
    task: "ExplorationTask",
    program: CompiledProgram,
    tables: Any,
    trivial: bool,
    logs: List[Dict[str, Any]],
    abort_code: int,
    telemetry: TelemetrySink,
) -> ExplorationResult:
    for log in logs:
        if log["error"] is not None:
            raise log["error"]

    max_states = task.max_states
    # Dedup expansion records by canonical state key (raw key under the
    # trivial canonicalizer).  Benign duplicate expansions produce
    # identical counters for the same key, so first-wins is
    # deterministic on complete runs.
    merged: Dict[bytes, Tuple[int, int]] = {}
    any_capped = False
    for li, log in enumerate(logs):
        keys = log["exp_key"]
        flags = log["exp_flags"]
        for ri in range(len(keys)):
            if flags[ri] == _FLAG_CAPPED:
                any_capped = True
            key = keys[ri]
            if key not in merged:
                merged[key] = (li, ri)

    events_total = 0
    max_depth_seen = 0
    for li, ri in merged.values():
        log = logs[li]
        events_total += log["exp_events"][ri]
        depth = log["exp_depth"][ri]
        if depth > max_depth_seen:
            max_depth_seen = depth

    distinct_discovered: set = set()
    for log in logs:
        distinct_discovered.update(log["disc_key"])

    violations: List[Tuple[int, Tuple[int, ...], str]] = []
    for log in logs:
        violations.extend(log["violations"])

    states_explored = len(merged)
    peak_visited = len(distinct_discovered) + 1
    truncated_by: Optional[str] = None
    if violations:
        truncated_by = "violation"
        states_explored += 1
    elif abort_code == _ABORT_TABLE_FULL:
        truncated_by = "visited_table_full"
    elif abort_code == _ABORT_MAX_STATES:
        truncated_by = "max_states"
    elif any_capped:
        truncated_by = "max_depth"
    if truncated_by == "max_states":
        states_explored = min(states_explored, max_states)
        peak_visited = min(peak_visited, max_states)

    result = ExplorationResult(
        complete=truncated_by is None,
        states_explored=states_explored,
        events_executed=events_total,
        max_depth_reached=max_depth_seen,
        group_size=task.canonicalizer.group_order,
    )
    result.truncated_by = truncated_by
    result.peak_visited = peak_visited
    result.stuck_states = 0
    # The merge sees only deduped discoveries, not every orbit
    # re-encounter, so the saved-work counter is reported as 0 — a
    # documented lower bound (exact under the trivial canonicalizer,
    # where no orbits exist to collapse).
    result.orbits_collapsed = 0

    if violations:
        m = program.m
        best = min(
            violations,
            key=lambda v: (v[0], tables.batch_raw(v[1], m)[0], v[2]),
        )
        result.violation = best[2]
        result.violation_schedule = _schedule_to(program, logs, best[1])
        if best[0] > result.max_depth_reached:
            result.max_depth_reached = best[0]

    if task.retain_graph and trivial:
        result.graph = _rebuild_graph(
            program, tables, logs, merged, result.complete
        )

    if telemetry.enabled:
        for log in logs:
            counters = log["counters"]
            telemetry.event("parallel.worker", **{"id": log["worker"]}, **counters)
            for name in ("chunks", "steals", "donated", "inserted", "duplicates"):
                telemetry.count(f"parallel.{name}", counters[name])
        telemetry.gauge("explore.visited", result.peak_visited)
        telemetry.count("explore.events", result.events_executed)
        telemetry.count("explore.orbit_hits", result.orbits_collapsed)
    return result


def _schedule_to(
    program: CompiledProgram,
    logs: List[Dict[str, Any]],
    target: Tuple[int, ...],
) -> Tuple[Any, ...]:
    """A replayable schedule from the initial state to ``target``.

    BFS over the merged discovery edges.  Every chunked state carries at
    least one discovery record whose parent chain bottoms out at the
    seeded initial state, so the target is always reachable here even
    when insert races lost some discovery attempts.
    """
    stride = program.m + len(program.slots)
    initial = tuple(program.initial_packed)
    if target == initial:
        return ()
    adj: Dict[Tuple[int, ...], List[Tuple[Tuple[int, ...], Tuple[int, ...]]]] = {}
    for log in logs:
        exp_packed = log["exp_packed"]
        disc_child = log["disc_child"]
        disc_parent = log["disc_parent"]
        disc_path = log["disc_path"]
        for j in range(len(disc_parent)):
            pbase = disc_parent[j] * stride
            parent = tuple(exp_packed[pbase : pbase + stride])
            cbase = j * stride
            child = tuple(disc_child[cbase : cbase + stride])
            adj.setdefault(parent, []).append((child, disc_path[j]))
    for edges in adj.values():
        edges.sort()
    parent_of: Dict[
        Tuple[int, ...], Tuple[Optional[Tuple[int, ...]], Tuple[int, ...]]
    ] = {initial: (None, ())}
    frontier = deque([initial])
    while frontier and target not in parent_of:
        node = frontier.popleft()
        for child, path in adj.get(node, ()):
            if child not in parent_of:
                parent_of[child] = (node, path)
                frontier.append(child)
    if target not in parent_of:
        raise RuntimeError(
            "parallel merge could not reconstruct a discovery path to "
            "the violating state"
        )
    slots_path: List[int] = []
    node: Optional[Tuple[int, ...]] = target
    while node is not None and node != initial:
        parent, path = parent_of[node]
        slots_path[:0] = path
        node = parent
    return tuple(program.slots[s] for s in slots_path)


def _rebuild_graph(
    program: CompiledProgram,
    tables: Any,
    logs: List[Dict[str, Any]],
    merged: Dict[bytes, Tuple[int, int]],
    complete: bool,
) -> Any:
    """Regenerate the retained StateGraph from the merged record set.

    Each merged expanded record is re-expanded (cheap, table-driven) and
    its packed children, encoded as ints in the program's layout (the
    tables are closed, so it never widens), fed to the graph builder in
    the instance's pid order — the same per-node edge order as the
    serial walk.
    ``StateGraph.to_bytes()`` sorts nodes by raw key, so the order in
    which this merge numbers nodes is irrelevant and the bytes come out
    identical to ``SerialBackend`` on complete runs.
    """
    from repro.verify.graph import GraphBuilder

    stride = program.m + len(program.slots)
    encode = program.encode
    builder = GraphBuilder(
        program.values,
        program.slot_entries(),
        encode(program.initial_packed),
        (program.field_shift, program.field_mask),
    )
    pending_states = array("q")
    pending: List[int] = []

    def flush() -> None:
        children, edges = program.expand_batch(pending_states)
        # Edge triples come grouped by source, in batch order.
        t = ci = 0
        for i, src in enumerate(pending):
            builder.expand(src)
            while t < len(edges) and edges[t] == i:
                if edges[t + 2]:
                    dst = src
                else:
                    cbase = ci * stride
                    ci += 1
                    dst = builder.node(encode(children[cbase : cbase + stride]))
                builder.edge(edges[t + 1], dst)
                t += 3
        del pending[:]
        del pending_states[:]

    for li, ri in merged.values():
        log = logs[li]
        flag = log["exp_flags"][ri]
        if flag == _FLAG_CAPPED:
            continue
        base = ri * stride
        packed = log["exp_packed"][base : base + stride]
        ordinal = builder.node(encode(packed))
        if flag == _FLAG_TERMINAL:
            builder.expand(ordinal)
            continue
        pending.append(ordinal)
        pending_states.extend(packed)
        if len(pending) == 256:
            flush()
    if pending:
        flush()
    return builder.finish(tables, complete)
