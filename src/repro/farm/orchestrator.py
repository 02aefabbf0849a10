"""Farm orchestration: create, drain, kill, resume.

A *farm directory* is the durable form of one sweep:

.. code-block:: text

    <dir>/
      runs.sqlite            -- the run table (repro.farm.runtable)
      manifests-<worker>.ndjson  -- one farm-cell manifest per finished cell
      graphs/cell-<idx>/     -- disk StateGraph stores of verify cells

Workers (:func:`drain_farm`) loop ``claim → execute → finish → append
manifest`` until the table drains; each worker appends to its *own*
manifest file, so concurrent workers never interleave writes within a
line.  The manifest line is appended after ``finish`` commits — the run
table is the source of truth for cell status, the NDJSON stream is the
audit record (a crash in the window between the two loses at most one
manifest line, never a result; ``repro report`` reads both).

Resume semantics (:func:`resume_farm`): stale ``claimed`` rows — the
cells a killed worker held — go back to ``pending``, then workers drain
as usual.  ``done`` cells are never re-executed, so a killed-and-resumed
farm executes every cell exactly once and its results (seeded runs, no
wall-clock fields) are byte-identical to an uninterrupted farm's.

Execution errors inside a cell mark it ``error`` (with the repr) and
the worker moves on — one broken cell must not strand a thousand-cell
grid.  ``error`` is terminal by default — a deliberate state distinct
from "worker died" — but a retry budget (``--max-attempts N``, stored
in the grid config or passed at resume time) re-pends error cells
whose ``attempts`` count is below N, both live (a worker that fails a
cell immediately offers it back while budget remains) and on
``--resume``.  Retried cells re-execute from scratch; their results
are deterministic, so a farm that needed retries is byte-identical to
one that never failed.
"""

from __future__ import annotations

import json
import multiprocessing
import signal
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.errors import FarmError
from repro.farm.cells import grid_cells
from repro.farm.runtable import STATUSES, Cell, CellRow, SqliteRunTable

__all__ = [
    "FarmResult",
    "create_farm",
    "open_farm",
    "resume_farm",
    "drain_table",
    "drain_farm",
    "run_farm",
    "farm_result",
    "is_farm_dir",
]

GRAPHS_DIRNAME = "graphs"
MANIFEST_PREFIX = "manifests-"

#: Hook called with each cell right after its claim commits; tests use
#: it to simulate a worker killed mid-cell (raise → the cell stays
#: ``claimed``, exactly the state a SIGKILL leaves behind).
FaultInjector = Callable[[Any], None]


@dataclass
class FarmResult:
    """Every row of one farm's run table, with aggregate queries.

    The farm-level analogue of
    :class:`~repro.analysis.experiments.SweepResult`: its rows hold the
    JSON results of :func:`~repro.farm.cells.execute_cell`, one per
    cell, with each cell's status, attempts and claims.
    """

    problem: str
    rows: List[CellRow] = field(default_factory=list)

    @property
    def counts(self) -> Dict[str, int]:
        counts = dict.fromkeys(STATUSES, 0)
        for row in self.rows:
            counts[row.status] += 1
        return counts

    @property
    def done(self) -> List[CellRow]:
        return [row for row in self.rows if row.status == "done"]

    @property
    def errors(self) -> List[CellRow]:
        return [row for row in self.rows if row.status == "error"]

    @property
    def complete(self) -> bool:
        """True when every cell reached ``done``."""
        return all(row.status == "done" for row in self.rows)

    def summary(self) -> str:
        counts = self.counts
        return (
            f"{self.problem}: {len(self.rows)} cells — "
            + ", ".join(f"{counts[s]} {s}" for s in ("done", "pending", "claimed", "error"))
        )


# -- directory layout --------------------------------------------------

def _table_path(directory: Union[str, Path]) -> Path:
    return Path(directory) / SqliteRunTable.FILENAME


def is_farm_dir(path: Union[str, Path]) -> bool:
    """Whether ``path`` looks like a farm directory (has a run table)."""
    return _table_path(path).exists()


def create_farm(directory: Union[str, Path], config: Dict[str, Any]) -> int:
    """Materialise a grid config into a fresh farm directory.

    Returns the cell count.  Refuses an existing run table — resuming
    is :func:`resume_farm`'s job, and silently re-gridding over
    finished cells is the failure mode the farm exists to prevent.  A
    grid whose target does not resolve raises
    :class:`~repro.errors.ConfigurationError` before the table exists.
    """
    from repro.request import resolve_target

    resolve_target(config["problem"], config.get("instance"), config.get("params"))
    cells = grid_cells(config)
    if not cells:
        raise FarmError("grid config materialises zero cells")
    table = SqliteRunTable.create(
        _table_path(directory), cells, meta={"grid": config}
    )
    table.close()
    return len(cells)


def open_farm(directory: Union[str, Path]) -> SqliteRunTable:
    """Open a farm directory's run table (each worker opens its own)."""
    return SqliteRunTable.open(_table_path(directory))


def resume_farm(
    directory: Union[str, Path], max_attempts: Optional[int] = None
) -> int:
    """Reclaim stale ``claimed`` cells; returns how many cells re-entered
    ``pending`` (stale claims plus, under a retry budget, error cells
    with remaining attempts).

    ``max_attempts`` defaults to the grid config's ``max_attempts``
    (itself defaulting to 1 — errors stay terminal).  Call once, before
    workers start — not concurrently with them (see
    :meth:`SqliteRunTable.reset_claims`).
    """
    with open_farm(directory) as table:
        if max_attempts is None:
            max_attempts = int(
                (table.meta().get("grid") or {}).get("max_attempts", 1)
            )
        reclaimed = table.reset_claims()
        if max_attempts > 1:
            reclaimed += table.retry_errors(max_attempts)
        return reclaimed


def farm_result(directory: Union[str, Path]) -> FarmResult:
    """Snapshot a farm directory's run table into a :class:`FarmResult`."""
    with open_farm(directory) as table:
        grid = table.meta().get("grid", {})
        return FarmResult(problem=grid.get("problem", "?"), rows=table.rows())


# -- the worker loop ---------------------------------------------------

def _append_manifest(
    directory: Path,
    worker: str,
    config: Dict[str, Any],
    cell,
    result: Dict[str, Any],
    attempts: int,
) -> None:
    from repro.obs.manifest import RunManifest

    manifest = RunManifest.create(
        # Fuzz shards are first-class fuzz evidence, not generic farm
        # bookkeeping; reports group them with one-shot fuzz manifests.
        kind="fuzz" if cell.kind == "fuzz" else "farm-cell",
        algorithm=config["problem"],
        parameters={
            "cell": cell.index,
            "cell_kind": cell.kind,
            "max_steps": int(config.get("max_steps", 0)),
            "worker": worker,
            "attempt": attempts,
        },
        naming=result.get("naming", "identity"),
        adversary=result.get("adversary"),
        backend="farm",
        workers=1,
        outcome=result,
    )
    line = json.dumps(manifest.to_dict(), sort_keys=True)
    path = directory / f"{MANIFEST_PREFIX}{worker}.ndjson"
    # O_APPEND + one write: a whole line lands or (on a kill mid-write)
    # a truncated tail the report CLI tolerates; lines never interleave
    # because each worker owns its file.
    with path.open("a") as stream:
        stream.write(line + "\n")


def drain_table(
    table: SqliteRunTable,
    config: Dict[str, Any],
    worker: str,
    *,
    max_attempts: int = 1,
    graphs_dir: Optional[Path] = None,
    fault_injector: Optional[FaultInjector] = None,
    max_cells: Optional[int] = None,
    on_finish: Optional[Callable[[Cell, Dict[str, Any]], None]] = None,
) -> None:
    """The claim loop over a run table: claim, execute, settle.

    A cell that raises is marked ``error`` with its exception's class
    and text, and the loop moves on (a failed cell with attempts to
    spare under ``max_attempts`` goes straight back to ``pending``); a
    :class:`~repro.errors.FarmError` propagates.  ``on_finish`` is
    called with each cell and its result after ``finish`` commits.

    The loop keeps one step-memo dict for all the cells it claims (see
    :func:`~repro.farm.cells.execute_cell`), so its fuzz cells share one
    memo per target.  A cell that raises drops every memo: no later
    cell reads a table the failure may have left half-written.
    """
    from repro.farm.cells import execute_cell

    memos: Dict[Any, Any] = {}
    executed = 0
    while max_cells is None or executed < max_cells:
        cell = table.claim(worker)
        if cell is None:
            break
        if fault_injector is not None:
            fault_injector(cell)
        executed += 1
        try:
            result = execute_cell(
                config, cell, graphs_dir=graphs_dir, memos=memos
            )
        except FarmError:
            raise  # protocol bugs must surface, not soak into rows
        except Exception as exc:  # noqa: BLE001 — cell isolation
            memos.clear()
            table.fail(cell.index, f"{type(exc).__name__}: {exc}")
            if max_attempts > 1:
                table.retry_errors(max_attempts)
            continue
        table.finish(cell.index, result)
        if on_finish is not None:
            on_finish(cell, result)


def drain_farm(
    directory: Union[str, Path],
    worker: str = "w0",
    fault_injector: Optional[FaultInjector] = None,
    max_cells: Optional[int] = None,
    max_attempts: Optional[int] = None,
) -> FarmResult:
    """Claim-and-execute cells until the table drains (one worker).

    The loop is :func:`drain_table`'s, so the worker's fuzz cells share
    one step memo per target.  ``max_cells`` bounds how many cells this
    call may claim (for tests and incremental draining);
    ``fault_injector`` fires between claim and execution — see
    :data:`FaultInjector`.  ``max_attempts`` (default: the grid
    config's, default 1) is the per-cell retry budget: a failed cell
    with attempts to spare goes straight back to ``pending`` instead of
    settling in ``error``.
    """
    root = Path(directory)
    with open_farm(root) as table:
        config = table.meta().get("grid")
        if config is None:
            raise FarmError(f"{root}: run table has no grid config in meta")
        if max_attempts is None:
            max_attempts = int(config.get("max_attempts", 1))

        def record(cell: Cell, result: Dict[str, Any]) -> None:
            _append_manifest(
                root, worker, config, cell, result,
                attempts=table.attempts_of(cell.index),
            )

        drain_table(
            table, config, worker,
            max_attempts=max_attempts,
            graphs_dir=root / GRAPHS_DIRNAME,
            fault_injector=fault_injector,
            max_cells=max_cells,
            on_finish=record,
        )
    return farm_result(root)


def _worker_entry(
    directory: str, worker: str, max_attempts: Optional[int]
) -> None:
    """Subprocess entry: open own connection, drain, exit 0."""
    # Workers are killed wholesale by the parent on SIGTERM; default
    # disposition means "die now, leave claims in place for resume".
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    drain_farm(directory, worker=worker, max_attempts=max_attempts)


def run_farm(
    directory: Union[str, Path],
    workers: int = 1,
    fault_injector: Optional[FaultInjector] = None,
    max_attempts: Optional[int] = None,
) -> FarmResult:
    """Drain a farm with ``workers`` processes (1 = in this process).

    With ``workers > 1``, N subprocesses each run the
    :func:`drain_farm` loop against their own sqlite connection; the
    parent waits, forwarding SIGTERM/SIGINT as child termination so a
    killed farm leaves only ``claimed`` rows behind (the resumable
    state).  Worker ids are ``w0..wN-1`` — stable across resume, so a
    resumed farm appends to the same per-worker manifest files.

    ``max_attempts`` is the per-cell retry budget (see
    :func:`drain_farm`).
    """
    if workers <= 1:
        return drain_farm(
            directory, fault_injector=fault_injector, max_attempts=max_attempts
        )
    if fault_injector is not None:
        raise FarmError("fault_injector is single-process only (workers=1)")

    context = multiprocessing.get_context("fork")
    children = [
        context.Process(
            target=_worker_entry,
            args=(str(directory), f"w{rank}", max_attempts),
            daemon=False,
        )
        for rank in range(workers)
    ]

    def _terminate(signum, frame):  # pragma: no cover — exercised via CLI kill
        for child in children:
            if child.is_alive():
                child.terminate()
        for child in children:
            child.join(timeout=5)
        sys.exit(128 + signum)

    previous = {
        signum: signal.signal(signum, _terminate)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        for child in children:
            child.start()
        for child in children:
            child.join()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    failed = [child.exitcode for child in children if child.exitcode != 0]
    if failed:
        raise FarmError(f"{len(failed)} worker(s) exited non-zero: {failed}")
    return farm_result(directory)
