"""``python -m repro fuzz`` — the fuzzer's command-line surface.

One-shot mode runs :func:`~repro.fuzz.engine.run_fuzz` in-process and
prints each certified violation with its shrunk witness.  With
``--out DIR`` the episode budget is sharded into *fuzz cells* of a
disk-backed farm (:mod:`repro.farm`, through the front end
``repro sweep`` shares, :mod:`repro.farm.cli`): the run table persists
episode ranges, ``--workers N`` drains them with claiming processes,
and a killed run restarts with ``--resume DIR`` exactly where it stopped —
episodes are globally numbered, so a resumed farm's results are
byte-identical to an uninterrupted one's.

Exit status:

* ``0`` — the run matches expectation: no violation found, or, with
  ``--expect-violation`` (the mutant-hunting mode CI uses), at least
  one found;
* ``1`` — it does not; or the run raised a typed error, printed as
  ``[error] <instance label>: <Class>: <message>`` on stderr (one-shot)
  or ``[error] cell N: <Class>: <message>`` per failed cell (farm),
  also under ``--expect-violation``;
* ``2`` — a usage error: an argparse error, a grid flag given with
  ``--resume`` (see :mod:`repro.farm.cli`), a selection that runs
  nothing (``--episodes 0``, a ``--families`` list naming no family),
  an unknown ``--families`` name, a farm-only flag
  (``--max-attempts``, ``--episodes-per-cell``) without ``--out``, a
  grid :func:`~repro.farm.create_farm` refuses (a non-positive
  ``--episodes-per-cell``), or any
  :class:`~repro.errors.ConfigurationError` (an unknown ``--problem``
  or ``--instance`` among them).  Nothing runs and no farm directory is
  created or changed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.cliflags import add_max_states_flag, add_seed_flag, reject_flag

__all__ = ["fuzz_main", "aggregate_fuzz_rows"]

#: Episodes per farm cell; small enough that a grid spreads across
#: workers, large enough that claim overhead stays negligible.
DEFAULT_EPISODES_PER_CELL = 8


def aggregate_fuzz_rows(rows: Sequence[Any]) -> Dict[str, Any]:
    """Merge done fuzz cells' results into one run-level summary.

    Cells are merged in episode order, so the violation list is exactly
    the one a one-shot run over the same episode range reports.
    ``distinct_states`` sums per-cell coverage (cells do not share seen
    sets, so the sum over-counts states reached in several cells).
    """
    results = sorted(
        (row.result for row in rows if row.status == "done" and row.result),
        key=lambda result: result.get("episode_base", 0),
    )
    summary: Dict[str, Any] = {
        "episodes_run": sum(r.get("episodes_run", 0) for r in results),
        "steps": sum(r.get("steps", 0) for r in results),
        "distinct_states": sum(r.get("distinct_states", 0) for r in results),
        "violations": [v for r in results for v in r.get("violations", [])],
    }
    by_family: Dict[str, int] = {}
    for result in results:
        for family, count in (result.get("violations_by_family") or {}).items():
            by_family[family] = by_family.get(family, 0) + count
    summary["violations_by_family"] = by_family
    return summary


def _print_violations(violations: Sequence[Dict[str, Any]]) -> None:
    for violation in violations:
        print(
            f"[HIT] {violation['kind']} via {violation['family']} "
            f"(episode {violation['episode']}): {violation['message']}"
        )
        if violation["kind"] == "safety":
            print(f"      shrunk schedule: {violation['shrunk_schedule']}")
        else:
            print(
                f"      shrunk lasso: prefix {violation['shrunk_prefix']}, "
                f"then repeat {violation['shrunk_cycle']} forever "
                "(replayable via repro.runtime.replay.replay_schedule)"
            )


def _write_fuzz_manifest(
    directory: str, report: Any, telemetry_snapshot: Dict[str, Any]
) -> None:
    import re
    from pathlib import Path

    from repro.obs.manifest import RunManifest

    outcome = report.to_dict()
    manifest = RunManifest.create(
        kind="fuzz",
        algorithm=report.problem,
        parameters={
            "instance": report.instance,
            "seed": report.seed,
            "episodes": report.episodes,
            "episode_base": report.episode_base,
            "max_steps": report.max_steps,
            "kernel": report.kernel,
            "families": list(report.families),
        },
        adversary=f"fuzz:{'+'.join(report.families)}",
        backend="serial",
        workers=1,
        outcome=outcome,
        telemetry=telemetry_snapshot,
    )
    slug = re.sub(r"[^a-z0-9]+", "-", report.instance.lower()).strip("-")
    manifest.write(Path(directory) / f"fuzz-{slug}-seed{report.seed}.json")


def fuzz_main(argv: Sequence[str]) -> int:
    from repro.errors import ConfigurationError, ReproError
    from repro.farm.cli import add_farm_flags, parse_farm_args, run_farm_command
    from repro.fuzz.strategies import STRATEGY_FAMILIES

    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description="Seeded adversary-strategy fuzzing over registry "
        "instances: strategy families (lockstep, random, greedy, "
        "covering) drive the step kernel hunting safety violations and "
        "livelock lassos; every hit is shrunk to a minimal schedule and "
        "certified by replaying it on a fresh system.  A clean run "
        "proves nothing — exhaustive guarantees live in `repro verify`.",
    )
    add_farm_flags(parser)
    add_seed_flag(parser)
    reject_flag(
        parser, "--kernel", "fuzz",
        "the search steps the interpreted kernel through the run's step "
        "memo; the compiled kernel serves the exhaustive walk "
        "(`repro verify --kernel compiled`)",
    )
    add_max_states_flag(parser, help_text="stop once this many distinct "
                        "states have been visited across all episodes")
    parser.add_argument("--episodes", type=int, default=64, metavar="N",
                        help="episode budget (default: %(default)s)")
    parser.add_argument("--max-steps", type=int, default=256, metavar="N",
                        help="schedule budget per episode "
                        "(default: %(default)s)")
    parser.add_argument("--max-violations", type=int, default=None,
                        metavar="N",
                        help="stop after N certified violations")
    parser.add_argument("--families", default=None, metavar="CSV",
                        help="comma-separated strategy families "
                        f"(default: {','.join(STRATEGY_FAMILIES)})")
    parser.add_argument("--expect-violation", action="store_true",
                        help="invert the exit status: 0 iff a violation "
                        "was found (mutant smoke tests)")
    parser.add_argument("--telemetry", metavar="DIR", default=None,
                        help="write a kind='fuzz' run manifest into DIR "
                        "(readable by `python -m repro report DIR`)")
    parser.add_argument("--episodes-per-cell", type=int, metavar="N",
                        help="episodes per farm cell with --out "
                        f"(default: {DEFAULT_EPISODES_PER_CELL})")
    args = parse_farm_args(parser, argv, (
        "--seed", "--max-states", "--episodes", "--max-steps", "--families",
        "--episodes-per-cell",
    ))

    if args.out is not None or args.resume is not None:
        # Cells run independently — a global early-stop cannot be
        # coordinated across them, and each cell already appends its own
        # kind='fuzz' manifest into the farm directory.
        if args.max_violations is not None:
            parser.error("--max-violations is one-shot only; farm cells "
                         "run their full episode range")
        if args.telemetry is not None:
            parser.error("--telemetry is one-shot only; farm cells write "
                         "kind='fuzz' manifests into the farm directory")
    if args.resume is not None:
        return _farm_report(
            args, run_farm_command(parser, args, None, "fuzz farm")
        )
    if args.episodes < 1:
        parser.error(f"--episodes must be >= 1, got {args.episodes}")
    families = None
    if args.families is not None:
        families = [f.strip() for f in args.families.split(",") if f.strip()]
        if not families:
            parser.error(f"--families {args.families!r} names no strategy "
                         "family; nothing to run")
        for family in families:
            if family not in STRATEGY_FAMILIES:
                parser.error(
                    f"unknown strategy family {family!r}; expected one of "
                    f"{list(STRATEGY_FAMILIES)}"
                )

    from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
    from repro.request import RunRequest

    telemetry = Telemetry() if args.telemetry else NULL_TELEMETRY
    try:  # both modes check the target and budgets before any work
        request = RunRequest(
            problem=args.problem,
            instance=args.instance,
            params=args.params,
            seed=args.seed,
            max_steps=args.max_steps,
            max_states=args.max_states,
            telemetry=telemetry,
        )
        _, record = request.resolve()
    except ConfigurationError as exc:
        parser.error(str(exc))

    result = run_farm_command(
        parser, args, _farm_config(args, families), "fuzz farm"
    )
    if result is not None:
        return _farm_report(args, result)
    if args.max_attempts is not None:
        parser.error("--max-attempts retries farm cells; add --out DIR")
    if args.episodes_per_cell is not None:
        parser.error("--episodes-per-cell shards farm cells; add --out DIR")

    from repro.fuzz.engine import run_fuzz

    try:
        report = run_fuzz(
            request,
            episodes=args.episodes,
            families=families,
            max_violations=args.max_violations,
        )
    except ConfigurationError as exc:
        parser.error(str(exc))
    except ReproError as exc:
        # The run failed, not the command line: end as a farm cell does.
        print(f"[error] {record.label}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    print(
        f"{report.instance}: {report.episodes_run} episode(s), "
        f"{report.steps} steps, {report.distinct_states} distinct "
        f"state(s), kernel={report.kernel}, seed={report.seed}"
    )
    if report.truncated_by:
        print(f"stopped early: {report.truncated_by} budget exhausted")
    _print_violations([v.to_dict() for v in report.violations])
    if args.telemetry:
        _write_fuzz_manifest(args.telemetry, report, telemetry.snapshot())
    found = report.found
    if not found:
        print("no violation found (not a proof — see `repro verify`)")
    if args.expect_violation:
        return 0 if found else 1
    return 1 if found else 0


# -- farm mode ---------------------------------------------------------

def _farm_config(
    args: argparse.Namespace, families: Optional[List[str]]
) -> Dict[str, Any]:
    return {
        "problem": args.problem,
        "instance": args.instance,
        "params": args.params,
        "fuzz": {
            "seed": args.seed,
            "episodes": args.episodes,
            "max_steps": args.max_steps,
            "max_states": args.max_states,
            "families": families,
            "episodes_per_cell": DEFAULT_EPISODES_PER_CELL
            if args.episodes_per_cell is None else args.episodes_per_cell,
        },
        "max_attempts": args.max_attempts or 1,
    }


def _farm_report(args: argparse.Namespace, result: Any) -> int:
    print(result.summary())
    summary = aggregate_fuzz_rows(result.rows)
    print(
        f"total: {summary['episodes_run']} episode(s), "
        f"{summary['steps']} steps, "
        f"{len(summary['violations'])} violation(s)"
    )
    _print_violations(summary["violations"])
    for row in result.errors:
        print(f"[error] cell {row.index}: {row.error}", file=sys.stderr)
    if result.errors:
        return 1
    found = bool(summary["violations"])
    if args.expect_violation:
        return 0 if found else 1
    return 1 if found else 0
