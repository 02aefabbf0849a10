"""The farm front end of the CLI, shared by ``repro sweep`` and ``repro fuzz``.

Both commands run a grid as a farm (:mod:`repro.farm.orchestrator`)
behind the same flags:

* ``--problem`` / ``--instance`` / ``--param K=V`` name the grid's
  target (``--param`` repeatable, exclusive with ``--instance``);
* ``--out DIR`` creates the farm and drains it;
* ``--resume DIR`` reclaims a killed farm's stale claims and drains the
  rest.  The directory stores its grid, so each grid flag given with
  ``--resume`` is a usage error (exit 2) naming the flag, even at its
  default value, instead of being ignored;
* ``--workers N`` drains with N claiming processes and
  ``--max-attempts N`` re-pends failed cells with attempts to spare.

:func:`add_farm_flags` registers them, :func:`parse_farm_args` parses
a command line, and :func:`run_farm_command` creates or resumes the
farm and drains it.  Each command keeps its own grid flags, its own
create line and its own report.
"""

from __future__ import annotations

import argparse
from typing import Any, Dict, Optional, Sequence

from repro.cliflags import positive_workers
from repro.errors import ReproError
from repro.farm.orchestrator import FarmResult

__all__ = ["add_farm_flags", "parse_farm_args", "run_farm_command"]

#: The flags naming a grid's target, shared by both farm commands.
_TARGET_FLAGS = ("--problem", "--instance", "--param")


def add_farm_flags(parser: argparse.ArgumentParser) -> None:
    """Register the target and farm flags ``sweep`` and ``fuzz`` share."""
    parser.add_argument("--problem", metavar="KEY",
                        help="problem registry key (e.g. figure-1-mutex)")
    parser.add_argument("--instance", metavar="LABEL",
                        help="instance label of the problem, or a mutant "
                        "problem key (e.g. figure-1-mutex-even-m)")
    parser.add_argument("--param", action="append", metavar="K=V",
                        help="explicit builder parameter (repeatable; "
                        "mutually exclusive with --instance)")
    parser.add_argument("--out", metavar="DIR",
                        help="create a farm directory and drain it")
    parser.add_argument("--resume", metavar="DIR",
                        help="reclaim a killed farm's cells and drain the "
                        "rest; the grid comes from DIR, so grid flags are "
                        "refused")
    parser.add_argument("--workers", type=positive_workers, default=1,
                        metavar="N", help="claiming worker processes "
                        "(needs --out/--resume)")
    parser.add_argument("--max-attempts", type=int, metavar="N",
                        help="per-cell retry budget: failed cells re-enter "
                        "pending until they have been attempted N times "
                        "(default: 1 — errors stay terminal)")


def parse_farm_args(
    parser: argparse.ArgumentParser,
    argv: Sequence[str],
    grid_flags: Sequence[str],
) -> argparse.Namespace:
    """Parse a farm command's ``argv`` (see :func:`add_farm_flags`).

    With ``--resume``, each grid flag given — the target flags,
    ``grid_flags`` and ``--out`` — is a usage error naming it, even at
    its default value.  Otherwise ``--problem`` is required,
    ``--param`` and ``--instance`` exclude each other, and
    ``args.params`` holds the ``--param`` dict (int values where they
    parse as one), or ``None``.
    """
    args = parser.parse_args(argv)
    args.params = None
    if args.resume is not None:
        flags = (*_TARGET_FLAGS, *grid_flags, "--out")
        dests = [flag[2:].replace("-", "_") for flag in flags]
        # argparse applies no default to an attribute the namespace
        # already holds, so a flag the command line leaves out stays None.
        preset = argparse.Namespace(**dict.fromkeys(dests))
        given = parser.parse_args(argv, preset)
        named = [
            flag for flag, dest in zip(flags, dests)
            if getattr(given, dest) is not None
        ]
        if named:
            parser.error("--resume takes its grid from the farm directory; "
                         f"drop {', '.join(named)}")
        return args
    if args.problem is None:
        parser.error("--problem is required (unless resuming)")
    if args.param is not None and args.instance is not None:
        parser.error("pass either --param or --instance, not both")
    if args.param is not None:
        args.params = {}
        for item in args.param:
            key, sep, value = item.partition("=")
            if not sep:
                parser.error(f"--param needs K=V, got {item!r}")
            try:
                args.params[key] = int(value)
            except ValueError:
                args.params[key] = value
    return args


def run_farm_command(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    config: Optional[Dict[str, Any]],
    create_line: str,
) -> Optional[FarmResult]:
    """Create (``--out``) or resume (``--resume``) a farm and drain it.

    A fresh farm materialises ``config`` (``None`` under ``--resume``)
    and prints ``<create_line>: N cell(s) at DIR``; a resumed one prints
    how many cells it reclaimed and how many are left to run.  Returns
    the farm's rows once drained, or ``None`` when the command line
    names no farm directory (``--workers`` above 1 is then a usage
    error).  The farm functions are looked up on :mod:`repro.farm` at
    call time, so a wrapper installed there (perfbench's layer spans)
    sees the calls.
    """
    from repro.farm import (
        create_farm,
        farm_result,
        is_farm_dir,
        resume_farm,
        run_farm,
    )

    directory = args.resume
    if directory is not None:
        if not is_farm_dir(directory):
            parser.error(f"{directory}: no run table found "
                         "(not a farm directory?)")
        reclaimed = resume_farm(directory, max_attempts=args.max_attempts)
        result = farm_result(directory)
        remaining = result.counts["pending"]
        print(f"resume: reclaimed {reclaimed} cell(s), "
              f"{remaining} cell(s) to run")
        if not remaining:
            return result
    elif args.out is not None:
        assert config is not None  # built for every fresh grid
        directory = args.out
        if is_farm_dir(directory):
            parser.error(f"{directory}: run table already exists; "
                         "use --resume to continue it")
        try:
            count = create_farm(directory, config)
        except ReproError as exc:
            parser.error(str(exc))
        print(f"{create_line}: {count} cell(s) at {directory}")
    else:
        if args.workers > 1:
            parser.error("--workers needs a shared run table; add --out DIR")
        return None
    return run_farm(
        directory, workers=args.workers, max_attempts=args.max_attempts
    )
