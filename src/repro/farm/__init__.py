"""The sweep farm: resumable, disk-backed grid execution.

Layers (each its own module, composable separately):

* :mod:`repro.farm.runtable` — the claimable-cell run table, one sqlite
  claim/finish protocol over a database file or an in-memory database;
* :mod:`repro.farm.cells` — grid materialisation from a JSON config and
  the execution of individual run/verify cells;
* :mod:`repro.farm.orchestrator` — create/drain/resume over a farm
  directory, per-worker manifest streams, multi-process draining;
* :mod:`repro.farm.cli` — the command-line front end ``repro sweep``
  and ``repro fuzz`` share (imported by the CLIs, not re-exported here).

``python -m repro sweep --out DIR`` is the CLI face; see
docs/EXPLORATION.md ("The sweep farm") for the directory layout, claim
protocol and resume semantics.
"""

from repro.farm.cells import (
    build_adversary,
    build_naming,
    default_checkers,
    describe_descriptor,
    execute_cell,
    grid_cells,
    parse_adversary_spec,
    parse_naming_spec,
    resolve_grid_target,
)
from repro.farm.orchestrator import (
    MANIFEST_PREFIX,
    FarmResult,
    create_farm,
    drain_farm,
    drain_table,
    farm_result,
    is_farm_dir,
    open_farm,
    resume_farm,
    run_farm,
)
from repro.farm.runtable import (
    STATUSES,
    Cell,
    CellRow,
    SqliteRunTable,
)

__all__ = [
    "STATUSES",
    "Cell",
    "CellRow",
    "SqliteRunTable",
    "MANIFEST_PREFIX",
    "FarmResult",
    "create_farm",
    "open_farm",
    "resume_farm",
    "drain_table",
    "drain_farm",
    "run_farm",
    "farm_result",
    "is_farm_dir",
    "grid_cells",
    "execute_cell",
    "default_checkers",
    "resolve_grid_target",
    "parse_naming_spec",
    "parse_adversary_spec",
    "describe_descriptor",
    "build_naming",
    "build_adversary",
]
