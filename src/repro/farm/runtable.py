"""The sweep farm's run table: a persisted grid of claimable cells.

A *run table* materialises a parameter grid — one row per (naming,
adversary) cell plus optional verify-grade cells — into durable
per-cell state, so that a sweep survives the process that started it.
Each cell moves through the status machine

    ``pending`` → ``claimed`` → ``done`` | ``error``

and ``--resume`` moves stale ``claimed`` cells (a killed worker's
half-finished claims) back to ``pending``.  ``error`` cells are
terminal by default; a retry budget (``--max-attempts N`` /
:meth:`~SqliteRunTable.retry_errors`) re-pends error cells whose
``attempts`` count is still below the budget, so transient failures
(OOM kills, flaky filesystems) stop poisoning a farm while genuinely
broken cells still settle after N tries.

One implementation, :class:`SqliteRunTable`, holds the rows in a sqlite
database.  Claims are idempotent ``UPDATE ... WHERE status='pending'``
transactions under ``BEGIN IMMEDIATE``, so N worker processes — or
separate hosts sharing a filesystem — can drain one table file without
executing any cell twice.  ``repro sweep`` without ``--out`` drains the
same table in a private in-memory database (:attr:`SqliteRunTable.MEMORY`),
so both modes run one claim protocol.  Payloads and results are JSON
documents.

The sqlite schema (documented in docs/EXPLORATION.md):

.. code-block:: sql

    CREATE TABLE cells (
        idx         INTEGER PRIMARY KEY,   -- grid position
        kind        TEXT    NOT NULL,      -- 'run' | 'verify' | 'fuzz'
        payload     TEXT    NOT NULL,      -- JSON cell parameters
        status      TEXT    NOT NULL DEFAULT 'pending',
        worker      TEXT,                  -- last claimant
        claimed_at  REAL,                  -- unix seconds
        finished_at REAL,
        attempts    INTEGER NOT NULL DEFAULT 0,
        result      TEXT,                  -- JSON result (done cells)
        error       TEXT                   -- repr (error cells)
    );
    CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);

``meta`` carries the JSON grid configuration under the key ``"grid"``,
so ``--resume DIR`` needs no flags: the directory is self-describing.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import FarmError

__all__ = [
    "STATUSES",
    "Cell",
    "CellRow",
    "SqliteRunTable",
]

#: The cell status machine, in lifecycle order.
STATUSES: Tuple[str, ...] = ("pending", "claimed", "done", "error")


@dataclass(frozen=True)
class Cell:
    """One claimable unit of work: a grid position plus its parameters.

    ``kind`` is ``"run"`` (trace + property checks under one naming ×
    adversary combination), ``"verify"`` (a graph-retaining exhaustive
    walk whose StateGraph lands in the farm's disk store) or ``"fuzz"``
    (a shard of seeded fuzzing episodes, see :mod:`repro.fuzz`).
    ``payload`` holds the cell-specific parameters, a JSON document.
    """

    index: int
    kind: str = "run"
    payload: Any = None


@dataclass
class CellRow:
    """One row of the run table: a :class:`Cell` plus its claim state."""

    index: int
    kind: str
    payload: Any
    status: str = "pending"
    worker: Optional[str] = None
    claimed_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: int = 0
    result: Any = None
    error: Optional[str] = None


class SqliteRunTable:
    """The run-table protocol over a sqlite database.

    Open one instance per worker process (sqlite connections do not
    survive ``fork``).  The database runs in WAL mode with a busy
    timeout, so concurrent claimants block briefly instead of failing;
    the claim itself is an ``UPDATE ... WHERE status='pending'`` under
    ``BEGIN IMMEDIATE`` whose rowcount decides who won — losing a race
    just means claiming the next pending cell.
    """

    FILENAME = "runs.sqlite"
    #: The path that places a table in a private in-memory database
    #: (sqlite's own spelling): one connection, gone when it closes.
    MEMORY = ":memory:"

    def __init__(self, connection: sqlite3.Connection):
        self._db = connection

    # -- construction --------------------------------------------------

    @classmethod
    def create(
        cls,
        path: Union[str, Path],
        cells: Sequence[Cell],
        meta: Optional[Dict[str, Any]] = None,
    ) -> "SqliteRunTable":
        """Create a fresh run table at ``path`` with one row per cell.

        Refuses to overwrite an existing table: a farm directory is
        append-only state, and starting over on top of finished cells is
        what ``--resume`` exists to prevent.  ``path`` may be
        :attr:`MEMORY` for a table no other connection can open.
        """
        target = Path(path)
        if target.exists():
            raise FarmError(
                f"{target}: run table already exists; use resume to "
                "continue it (or point --out at a fresh directory)"
            )
        target.parent.mkdir(parents=True, exist_ok=True)
        table = cls(cls._connect(target))
        with table._db:  # one transaction for schema + rows
            table._db.execute(
                "CREATE TABLE cells ("
                " idx INTEGER PRIMARY KEY,"
                " kind TEXT NOT NULL,"
                " payload TEXT NOT NULL,"
                " status TEXT NOT NULL DEFAULT 'pending',"
                " worker TEXT,"
                " claimed_at REAL,"
                " finished_at REAL,"
                " attempts INTEGER NOT NULL DEFAULT 0,"
                " result TEXT,"
                " error TEXT)"
            )
            table._db.execute(
                "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            table._db.executemany(
                "INSERT INTO cells (idx, kind, payload) VALUES (?, ?, ?)",
                [
                    (cell.index, cell.kind, json.dumps(cell.payload, sort_keys=True))
                    for cell in cells
                ],
            )
            table._db.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                [
                    (key, json.dumps(value, sort_keys=True))
                    for key, value in (meta or {}).items()
                ],
            )
        return table

    @classmethod
    def open(cls, path: Union[str, Path]) -> "SqliteRunTable":
        """Open an existing run table (raises :class:`FarmError` if absent)."""
        target = Path(path)
        if not target.exists():
            raise FarmError(f"{target}: no run table found (not a farm directory?)")
        return cls(cls._connect(target))

    @staticmethod
    def _connect(path: Path) -> sqlite3.Connection:
        # autocommit mode: transactions are issued explicitly (BEGIN
        # IMMEDIATE for claims) so the claim window is exactly as wide
        # as the UPDATE, never held open by python-side buffering.
        db = sqlite3.connect(str(path), timeout=30.0, isolation_level=None)
        db.execute("PRAGMA journal_mode=WAL")
        db.execute("PRAGMA busy_timeout=30000")
        db.execute("PRAGMA synchronous=NORMAL")
        return db

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "SqliteRunTable":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- the claim protocol --------------------------------------------

    def meta(self) -> Dict[str, Any]:
        rows = self._db.execute("SELECT key, value FROM meta").fetchall()
        return {key: json.loads(value) for key, value in rows}

    def claim(self, worker: str) -> Optional[Cell]:
        """Atomically claim the lowest-index pending cell.

        ``BEGIN IMMEDIATE`` takes the write lock up front; the UPDATE's
        ``WHERE status='pending'`` guard makes the claim idempotent —
        if another worker (or host) claimed the row between our SELECT
        and UPDATE, the rowcount is 0 and we simply try the next cell.
        Returns ``None`` when no pending cells remain.
        """
        while True:
            self._db.execute("BEGIN IMMEDIATE")
            try:
                row = self._db.execute(
                    "SELECT idx, kind, payload FROM cells"
                    " WHERE status='pending' ORDER BY idx LIMIT 1"
                ).fetchone()
                if row is None:
                    self._db.execute("COMMIT")
                    return None
                index, kind, payload = row
                cursor = self._db.execute(
                    "UPDATE cells SET status='claimed', worker=?,"
                    " claimed_at=?, attempts=attempts+1"
                    " WHERE idx=? AND status='pending'",
                    (worker, time.time(), index),
                )
                self._db.execute("COMMIT")
            except BaseException:
                self._db.execute("ROLLBACK")
                raise
            if cursor.rowcount == 1:
                return Cell(index=index, kind=kind, payload=json.loads(payload))
            # Lost the race for this row inside our own lock window —
            # only possible via an external writer; go around again.

    def finish(self, index: int, result: Any) -> None:
        """Move a claimed cell to ``done``; rejects double-finishes."""
        cursor = self._db.execute(
            "UPDATE cells SET status='done', result=?, finished_at=?, error=NULL"
            " WHERE idx=? AND status='claimed'",
            (json.dumps(result, sort_keys=True), time.time(), index),
        )
        if cursor.rowcount != 1:
            raise FarmError(
                f"cell {index} is not 'claimed'; finish() requires a "
                "prior claim (double-finish, or finished by another worker?)"
            )

    def fail(self, index: int, error: str) -> None:
        """Move a claimed cell to ``error``, recording the failure."""
        cursor = self._db.execute(
            "UPDATE cells SET status='error', error=?, finished_at=?"
            " WHERE idx=? AND status='claimed'",
            (error, time.time(), index),
        )
        if cursor.rowcount != 1:
            raise FarmError(
                f"cell {index} is not 'claimed'; fail() requires a prior claim"
            )

    def reset_claims(self) -> int:
        """Return stale ``claimed`` cells to ``pending`` (resume step).

        Only call this when no worker is live on the table — the farm
        has no lease/heartbeat notion, so a reset while workers run
        could hand a cell out twice.
        """
        cursor = self._db.execute(
            "UPDATE cells SET status='pending', worker=NULL, claimed_at=NULL"
            " WHERE status='claimed'"
        )
        return cursor.rowcount

    def retry_errors(self, max_attempts: int) -> int:
        """Re-pend ``error`` cells with ``attempts < max_attempts``.

        A failed cell whose ``attempts`` count is below ``max_attempts``
        moves back to ``pending``; cells at or over the budget stay
        terminal.  One guarded UPDATE, so a concurrent claimant can
        never race a cell back to ``pending`` twice.  The error text stays on the row until a
        retry resolves it (``finish`` clears it, a final ``fail``
        overwrites it).
        """
        cursor = self._db.execute(
            "UPDATE cells SET status='pending', worker=NULL,"
            " claimed_at=NULL, finished_at=NULL"
            " WHERE status='error' AND attempts < ?",
            (max_attempts,),
        )
        return cursor.rowcount

    def counts(self) -> Dict[str, int]:
        counts = {status: 0 for status in STATUSES}
        for status, count in self._db.execute(
            "SELECT status, COUNT(*) FROM cells GROUP BY status"
        ):
            counts[status] = count
        return counts

    def attempts_of(self, index: int) -> int:
        """How many times this cell has been claimed."""
        row = self._db.execute(
            "SELECT attempts FROM cells WHERE idx=?", (index,)
        ).fetchone()
        if row is None:
            raise FarmError(f"no cell with index {index} in this run table")
        return int(row[0])

    def rows(self) -> List[CellRow]:
        """Snapshot of every row, in grid order."""
        out: List[CellRow] = []
        for (
            index, kind, payload, status, worker,
            claimed_at, finished_at, attempts, result, error,
        ) in self._db.execute(
            "SELECT idx, kind, payload, status, worker, claimed_at,"
            " finished_at, attempts, result, error FROM cells ORDER BY idx"
        ):
            out.append(
                CellRow(
                    index=index,
                    kind=kind,
                    payload=json.loads(payload),
                    status=status,
                    worker=worker,
                    claimed_at=claimed_at,
                    finished_at=finished_at,
                    attempts=attempts,
                    result=json.loads(result) if result is not None else None,
                    error=error,
                )
            )
        return out
