"""Command-line entry point: ``python -m repro``.

Subcommands (every key of ``COMMANDS`` below appears here; pinned by
``tests/test_docs.py``):

* ``demo``        — run the three algorithms once and print what happened
                    (default when no subcommand is given);
* ``verify``      — exhaustively verify the problem registry's declared
                    safety invariants *and* liveness theorems
                    (deadlock-freedom, obstruction-freedom) over retained
                    state graphs, mutant counterexamples included
                    (``--list``, ``--problem``, ``--instance``,
                    ``--kernel``, ``--telemetry``);
* ``attack``      — run the Theorem 3.4 symmetry attack on Figure 1 with
                    an even register count and show the provable livelock;
* ``lint``        — dataflow-IR static analysis + runtime audits of the
                    model rules (pid-taint symmetry, register footprints,
                    bounded domains, anonymity, atomicity, pc
                    annotations), with ``--format sarif``/``--strict``
                    for CI gating;
* ``sweep``       — run a naming × adversary grid as a resumable,
                    disk-backed farm (``--out DIR`` persists a sqlite
                    run table that ``--resume DIR`` picks up exactly
                    where a killed sweep stopped, refusing any grid
                    flag; ``--workers N`` drains it with N claiming
                    processes; ``--max-attempts N`` retries transiently
                    failed cells; ``--retain-graph`` adds an exhaustive
                    verify cell recording its StateGraph's digest;
                    without ``--out`` the grid drains an in-memory run
                    table; the default ``--namings`` is ``identity``
                    alone for a named-register baseline);
* ``fuzz``        — seeded adversary-strategy fuzzing of registry
                    instances (``repro.fuzz``): strategy families
                    (lockstep, random, greedy, covering) hunt safety
                    violations and livelock lassos; hits are shrunk to
                    minimal schedules and certified by replay
                    (``--problem``, ``--instance``, ``--seed``,
                    ``--episodes``; ``--out/--resume/--workers`` shard
                    episodes over a farm);
* ``experiments`` — regenerate the paper-claim experiment tables (E1-E14
                    of the E1-E17 index in DESIGN.md; the E15-E17
                    extension tables run via ``pytest benchmarks/
                    --benchmark-only``; slower);
* ``report``      — validate and summarise run manifests written by the
                    telemetry subsystem (``repro.obs``), including farm
                    directories (cell status counts + manifest table).
"""

from __future__ import annotations

import argparse
import sys


def cmd_demo() -> int:
    from repro import (
        AnonymousConsensus,
        AnonymousMutex,
        AnonymousRenaming,
        RandomNaming,
        System,
    )
    from repro.runtime import RandomAdversary, StagedObstructionAdversary

    print("Figure 1 — two-process mutual exclusion, 3 anonymous registers")
    system = System(AnonymousMutex(m=3, cs_visits=2), [11, 13], naming=RandomNaming(1))
    trace = system.run(RandomAdversary(1), max_steps=100_000)
    print(f"  {trace.critical_section_entries()} serialized CS entries "
          f"in {len(trace)} steps\n")

    print("Figure 2 — three-process consensus, 5 anonymous registers")
    system = System(
        AnonymousConsensus(n=3), {11: "a", 13: "b", 17: "c"}, naming=RandomNaming(2)
    )
    trace = system.run(StagedObstructionAdversary(prefix_steps=50, seed=2), max_steps=200_000)
    print(f"  decisions: {trace.outputs}\n")

    print("Figure 3 — four-process perfect renaming, 7 anonymous registers")
    system = System(AnonymousRenaming(n=4), [11, 13, 17, 19], naming=RandomNaming(3))
    trace = system.run(StagedObstructionAdversary(prefix_steps=80, seed=3), max_steps=500_000)
    print(f"  new names: {trace.outputs}")
    return 0


def cmd_verify(rest=()) -> int:
    """Exhaustive safety + liveness verification of registry instances."""
    from repro.cliflags import add_kernel_flag, reject_flag
    from repro.errors import ConfigurationError, ReproError, VerificationError
    from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
    from repro.problems import get_problem, instances_with_role
    from repro.request import RunRequest
    from repro.verify import verify_instance, write_verify_manifest

    parser = argparse.ArgumentParser(
        prog="python -m repro verify",
        description="Exhaustively verify the registry's declared safety "
        "invariants and liveness theorems (deadlock-freedom via SCC "
        "non-progress-cycle analysis, obstruction-freedom via solo-run "
        "termination) over retained state graphs — no adversary sampling. "
        "Seeded mutants are expected to FAIL their property and count as "
        "OK when they do, with a replayable lasso counterexample.",
    )
    parser.add_argument(
        "--problem",
        action="append",
        default=None,
        metavar="KEY",
        help="only verify this problem's instances (repeatable)",
    )
    parser.add_argument(
        "--instance",
        action="append",
        default=None,
        metavar="LABEL",
        help="only verify this instance label (repeatable)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the verify-role instances and exit",
    )
    parser.add_argument(
        "--max-states",
        type=int,
        default=None,
        metavar="N",
        help="override each instance's verification state budget",
    )
    add_kernel_flag(
        parser,
        "step kernel for the walk: 'compiled' runs the "
        "table-compiled kernel (bit-identical graph, ~10x the "
        "throughput)",
    )
    parser.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="write one run manifest per instance into DIR "
        "(readable by `python -m repro report DIR`)",
    )
    reject_flag(
        parser, "--seed", "verify",
        "exhaustive verification quantifies over every schedule; "
        "there is nothing to seed (randomised search is `repro fuzz`)",
    )
    reject_flag(
        parser, "--workers", "verify",
        "each instance's graph-retaining walk runs in one process; "
        "the fast path is --kernel compiled",
    )
    args = parser.parse_args(list(rest))
    try:  # the budget is checked before any instance runs
        base_request = RunRequest(kernel=args.kernel, max_states=args.max_states)
    except ConfigurationError as exc:
        parser.error(str(exc))

    selected = []
    if args.problem:
        for key in args.problem:
            try:
                spec = get_problem(key)
            except KeyError as exc:  # its text lists the known keys
                parser.error(exc.args[0])
            selected.extend(
                (spec, inst) for inst in spec.instances_with_role("verify")
            )
        if not selected:
            parser.error(
                f"problem(s) {args.problem} declare no verify-role "
                "instance; `repro verify --list` lists those there are"
            )
    else:
        selected = list(instances_with_role("verify", include_mutants=True))
    if args.instance:
        wanted = set(args.instance)
        known = [inst.label for _, inst in selected]
        selected = [
            (spec, inst) for spec, inst in selected if inst.label in wanted
        ]
        missing = wanted - {inst.label for _, inst in selected}
        if missing:
            parser.error(
                f"unknown instance label(s) {sorted(missing)}; known: {known}"
            )
    if args.list:
        for spec, inst in selected:
            liveness = ", ".join(
                f"{prop.kind} ({prop.theorem})"
                + (" [expect violation]" if prop.expect_violation else "")
                for prop in spec.liveness
            ) or "safety only"
            print(f"{inst.label}: {liveness}")
        return 0

    failed = 0
    for spec, inst in selected:
        telemetry = Telemetry() if args.telemetry else NULL_TELEMETRY
        request = base_request.replace(telemetry=telemetry)
        try:
            report = verify_instance(spec, inst, request=request)
        except VerificationError as exc:
            failed += 1
            print(f"[FAIL] {inst.label}: {exc}")
            continue
        except ReproError as exc:
            # The run failed, not the command line: end it as fuzz and
            # sweep do, and go on with the next instance.
            failed += 1
            print(f"[error] {inst.label}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            continue
        status = "OK " if report.ok else "FAIL"
        if not report.ok:
            failed += 1
        print(f"[{status}] {inst.label}: {report.summary()}")
        for outcome in report.outcomes:
            lasso = outcome.verdict.lasso
            if lasso is not None:
                print(
                    f"       lasso: {len(lasso.prefix)}-step prefix, then "
                    f"repeat {list(lasso.cycle)} forever "
                    "(replayable via repro.runtime.replay.replay_schedule)"
                )
        if args.telemetry:
            write_verify_manifest(
                args.telemetry, spec, inst, report, telemetry.snapshot()
            )
    return 1 if failed else 0


def cmd_attack() -> int:
    from repro.core.mutex import AnonymousMutex
    from repro.lowerbounds.symmetry import run_symmetry_attack

    for m in (2, 4, 6):
        result = run_symmetry_attack(
            AnonymousMutex(m=m, unsafe_allow_any_m=True), [11, 13]
        )
        print(f"m={m}: {result.summary()}")
        if not result.violated:
            return 1
    print("even register counts are impossible, exactly as Theorem 3.1 says")
    return 0


def cmd_lint(rest=()) -> int:
    from repro.lint.cli import main as lint_main

    return lint_main(list(rest))


def cmd_report(rest=()) -> int:
    from repro.obs.report import report_main

    return report_main(list(rest))


def cmd_fuzz(rest=()) -> int:
    """Seeded adversary-strategy fuzzing (see repro.fuzz)."""
    from repro.fuzz.cli import fuzz_main

    return fuzz_main(list(rest))


def cmd_sweep(rest=()) -> int:
    """Resumable disk-backed sweep farm (see repro.farm)."""
    from repro.cliflags import reject_flag
    from repro.farm.cli import add_farm_flags, parse_farm_args, run_farm_command

    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Run a naming × adversary grid over a problem from "
        "the registry.  With --out DIR the grid persists as a sqlite "
        "run table workers claim cells from; a killed run restarts with "
        "--resume DIR exactly where it stopped (done cells are never "
        "re-executed; the grid comes from DIR, so grid flags are "
        "refused).  Without --out the grid drains through the same claim "
        "loop over an in-memory run table.",
    )
    add_farm_flags(parser)
    parser.add_argument("--namings", metavar="SPECS",
                        help="comma-separated naming specs: identity | "
                        "random:SEED (default: identity,random:1; "
                        "identity alone for an algorithm that assumes "
                        "named registers)")
    parser.add_argument("--adversaries", default="random:1,random:2,round-robin",
                        metavar="SPECS",
                        help="comma-separated adversary specs: round-robin | "
                        "random:SEED | burst:SEED | staged:PREFIX:SEED "
                        "(default: %(default)s)")
    parser.add_argument("--max-steps", type=int, default=200_000, metavar="N",
                        help="step budget per run cell (default: %(default)s)")
    parser.add_argument("--retain-graph", action="store_true",
                        help="append one exhaustive verify cell that "
                        "records its retained StateGraph's sha256")
    parser.add_argument("--verify-max-states", type=int, default=None,
                        metavar="N", help="state budget for the verify cell")
    reject_flag(
        parser, "--kernel", "sweep",
        "grid cells replay live System runs through the interpreted "
        "scheduler; the compiled kernel serves the exhaustive walk "
        "(`repro verify --kernel compiled`)",
    )
    reject_flag(
        parser, "--seed", "sweep",
        "adversary seeds ride in the --adversaries specs "
        "(e.g. random:SEED)",
    )
    reject_flag(
        parser, "--max-states", "sweep",
        "run cells are step-bounded (--max-steps); the verify cell's "
        "state budget is --verify-max-states",
    )
    args = parse_farm_args(parser, rest, (
        "--namings", "--adversaries", "--max-steps", "--retain-graph",
        "--verify-max-states",
    ))
    config = None if args.resume is not None else _sweep_config(parser, args)
    result = run_farm_command(parser, args, config, "farm")
    if result is None:
        result = _sweep_in_memory(config)

    print(result.summary())
    violations = sum(
        1 for row in result.done
        if (row.result or {}).get("verdict") not in ("ok", "verified", None)
    )
    if violations:
        print(f"{violations} cell(s) recorded property violations")
    for row in result.errors:
        print(f"[error] cell {row.index}: {row.error}", file=sys.stderr)
    return 1 if result.errors else 0


def _sweep_config(parser, args) -> dict:
    """The grid config of a fresh sweep.  Its target, budgets, namings
    and adversaries are checked here, so a grid that cannot run, or
    runs nothing, is a usage error before any cell runs."""
    from repro.errors import ReproError
    from repro.farm import build_naming, parse_adversary_spec, parse_naming_spec
    from repro.request import RunRequest, resolve_target
    from repro.runtime.system import check_naming

    if args.verify_max_states is not None and not args.retain_graph:
        parser.error("--verify-max-states budgets the verify cell; "
                     "add --retain-graph")

    def specs(flag, text, parse):
        parsed = [parse(item) for item in text.split(",") if item.strip()]
        if not parsed:
            parser.error(f"{flag} {text!r} names no spec; nothing to run")
        return parsed

    try:
        spec, record = resolve_target(args.problem, args.instance, args.params)
        RunRequest(max_steps=args.max_steps, max_states=args.verify_max_states)
        algorithm = spec.build(record.params_dict())
        namings = args.namings or (
            "identity,random:1" if algorithm.is_anonymous() else "identity"
        )
        config = {
            "problem": args.problem,
            "instance": args.instance,
            "params": args.params,
            "namings": specs("--namings", namings, parse_naming_spec),
            "adversaries": specs(
                "--adversaries", args.adversaries, parse_adversary_spec
            ),
            "max_steps": args.max_steps,
            "retain_graph": args.retain_graph,
            "verify_max_states": args.verify_max_states,
            "max_attempts": args.max_attempts or 1,
        }
        for naming in config["namings"]:
            check_naming(algorithm, build_naming(naming))
    except ReproError as exc:
        parser.error(str(exc))
    return config


def _sweep_in_memory(config) -> "object":
    """One-shot sweep over an in-memory run table (no farm directory).
    It drains through the farm's claim loop, so a cell that raises
    becomes an error row here too."""
    from repro.farm import FarmResult, SqliteRunTable, drain_table, grid_cells

    with SqliteRunTable.create(SqliteRunTable.MEMORY, grid_cells(config)) as table:
        drain_table(table, config, "cli", max_attempts=config["max_attempts"])
        return FarmResult(problem=config["problem"], rows=table.rows())


def cmd_experiments() -> int:
    import importlib.util
    from pathlib import Path

    script = Path(__file__).resolve().parents[2] / "benchmarks" / "run_experiments.py"
    if not script.exists():
        print(
            "benchmarks/run_experiments.py not found (installed without the "
            "repository checkout); clone the repo to run the full tables",
            file=sys.stderr,
        )
        return 2
    spec = importlib.util.spec_from_file_location("run_experiments", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # An empty argv: the script's parser would otherwise read this
    # process's own ["experiments"] as a name filter that selects none.
    return module.main([])


#: The subcommand registry: name → handler.  Every key must appear in
#: the module docstring above (asserted by tests/test_docs.py).
COMMANDS = {
    "demo": cmd_demo,
    "verify": cmd_verify,
    "attack": cmd_attack,
    "lint": cmd_lint,
    "sweep": cmd_sweep,
    "fuzz": cmd_fuzz,
    "experiments": cmd_experiments,
    "report": cmd_report,
}

#: Subcommands with their own ArgumentParser: the remaining argv is
#: forwarded to them instead of being rejected here.
_FORWARDS_REST = frozenset({"verify", "lint", "sweep", "fuzz", "report"})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Coordination Without Prior Agreement — reproduction CLI",
    )
    parser.add_argument(
        "command",
        nargs="?",
        default="demo",
        choices=list(COMMANDS),
        help="demo (default) | verify [--list --problem --instance "
             "--kernel --telemetry] (exhaustive safety + "
             "liveness over "
             "the problem registry) | attack | lint | "
             "sweep [--problem KEY --out DIR | --resume DIR] "
             "[--workers N] (resumable disk-backed naming × adversary "
             "grid; --resume takes the grid from DIR) | "
             "fuzz [--problem KEY --seed N --episodes N] (seeded "
             "adversary-strategy fuzzing with certified, shrunk "
             "violation schedules) | "
             "experiments (tables E1-E14 of the E1-E17 index; E15-E17 "
             "run via pytest benchmarks/) | "
             "report <manifest-or-dir> (summarise repro.obs run "
             "manifests or a sweep-farm directory)",
    )
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _FORWARDS_REST:
        # Hand the whole tail to the subcommand's own parser before the
        # top-level one can intercept --help (or any shared spelling).
        return COMMANDS[argv[0]](argv[1:])
    args, rest = parser.parse_known_args(argv)
    if args.command in _FORWARDS_REST:
        return COMMANDS[args.command](rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return COMMANDS[args.command]()


if __name__ == "__main__":
    raise SystemExit(main())
