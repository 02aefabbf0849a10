"""The execution-flag matrix, pinned.

Every command that executes registry work either *accepts* one of the
four shared execution flags (``--kernel``, ``--workers``, ``--seed``,
``--max-states``) or *explicitly rejects* it with
:func:`repro.cliflags.rejection_message`'s uniform text — silently
ignoring an execution flag is the failure mode ruled out here.  The
matrix lives in ``src/repro/cliflags.py``'s docstring; this module is
its executable twin.  ``--kernel`` is the one engine selector, so
``--backend`` is no flag at all: argparse ends it as an unrecognized
argument.  The farm commands' ``--resume`` refuses every grid flag the
same way, since a farm directory stores its grid.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.cliflags import rejection_message
from repro.farm import create_farm, drain_farm, farm_result

REPO = Path(__file__).resolve().parents[1]


def run_expecting_usage_error(argv, capsys):
    """Run the CLI expecting argparse's exit-2 usage error; return stderr."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    return capsys.readouterr().err


def help_text(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    return capsys.readouterr().out


class TestRejectionMessage:
    def test_shape(self):
        assert rejection_message("--seed", "verify", "because") == (
            "--seed is not supported by `repro verify`: because"
        )


VERIFY_REJECTIONS = [
    ("--seed", "3",
     "exhaustive verification quantifies over every schedule; "
     "there is nothing to seed (randomised search is `repro fuzz`)"),
    ("--workers", "2",
     "each instance's graph-retaining walk runs in one process; "
     "the fast path is --kernel compiled"),
]


class TestVerifyRow:
    def test_accepts_kernel_max_states(self, capsys):
        text = help_text("verify", capsys)
        for flag in ("--kernel", "--max-states"):
            assert flag in text
        for flag, _operand, _reason in VERIFY_REJECTIONS:
            assert flag not in text  # rejected flags are suppressed

    @pytest.mark.parametrize(
        "flag, operand, reason", VERIFY_REJECTIONS,
        ids=[flag for flag, _operand, _reason in VERIFY_REJECTIONS],
    )
    def test_rejects_with_pinned_text(self, flag, operand, reason, capsys):
        err = run_expecting_usage_error(
            ["verify", "--problem", "figure-1-mutex", flag, operand], capsys
        )
        assert rejection_message(flag, "verify", reason) in err

    def test_empty_selection_is_a_usage_error(self, capsys):
        # ladder-consensus declares no verify-role instance: a run that
        # checked nothing must not report success.
        err = run_expecting_usage_error(
            ["verify", "--problem", "ladder-consensus"], capsys
        )
        assert (
            "problem(s) ['ladder-consensus'] declare no verify-role instance"
            in err
        )

    def test_unknown_label_lists_only_the_selected_problems(self, capsys):
        from repro.problems import get_problem

        err = run_expecting_usage_error(
            ["verify", "--problem", "election",
             "--instance", "figure-1-mutex(m=3)"], capsys
        )
        known = [
            inst.label
            for inst in get_problem("election").instances_with_role("verify")
        ]
        assert (
            f"unknown instance label(s) ['figure-1-mutex(m=3)']; "
            f"known: {known}" in err
        )


class TestSweepRow:
    def test_accepts_workers(self, capsys):
        assert "--workers" in help_text("sweep", capsys)

    @pytest.mark.parametrize("flag, reason", [
        ("--kernel",
         "grid cells replay live System runs through the interpreted "
         "scheduler; the compiled kernel serves the exhaustive walk "
         "(`repro verify --kernel compiled`)"),
        ("--seed",
         "adversary seeds ride in the --adversaries specs "
         "(e.g. random:SEED)"),
        ("--max-states",
         "run cells are step-bounded (--max-steps); the verify cell's "
         "state budget is --verify-max-states"),
    ])
    def test_rejects_with_pinned_text(self, flag, reason, capsys):
        err = run_expecting_usage_error(
            ["sweep", "--problem", "figure-1-mutex", flag, "x"], capsys
        )
        assert rejection_message(flag, "sweep", reason) in err


FUZZ_REJECTIONS = {
    "--kernel":
        "the search steps the interpreted kernel through the run's step "
        "memo; the compiled kernel serves the exhaustive walk "
        "(`repro verify --kernel compiled`)",
}


class TestFuzzRow:
    def test_accepts_workers_seed_max_states(self, capsys):
        text = help_text("fuzz", capsys)
        for flag in ("--workers", "--seed", "--max-states"):
            assert flag in text
        for flag in FUZZ_REJECTIONS:
            assert flag not in text  # rejected flags are suppressed

    @pytest.mark.parametrize("flag, operand", [
        ("--kernel", "compiled"),
        ("--kernel", "interpreted"),
    ])
    def test_rejects_with_pinned_text(self, flag, operand, capsys):
        err = run_expecting_usage_error(
            ["fuzz", "--problem", "figure-1-mutex", flag, operand], capsys
        )
        assert rejection_message(flag, "fuzz", FUZZ_REJECTIONS[flag]) in err


class TestWorkersValidation:
    """``--workers 0`` (or negative, or junk) dies at the parser with
    the same one-line message in every command that accepts the flag."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--problem", "figure-1-mutex"],
        ["fuzz", "--problem", "figure-1-mutex"],
    ], ids=["sweep", "fuzz"])
    @pytest.mark.parametrize("value, shown", [
        ("0", "0"), ("-2", "-2"), ("many", "'many'"),
    ])
    def test_rejected_with_pinned_text(self, argv, value, shown, capsys):
        err = run_expecting_usage_error(argv + ["--workers", value], capsys)
        assert (
            f"argument --workers: workers must be a positive int, "
            f"got {shown}" in err
        )


def run_bench(*argv):
    return subprocess.run(
        [sys.executable, str(REPO / "benchmarks" / "run_experiments.py"),
         *argv],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )


class TestBenchRow:
    def test_accepts_kernel_seed_max_states(self):
        result = run_bench("--help")
        assert result.returncode == 0
        for flag in ("--kernel", "--seed", "--max-states"):
            assert flag in result.stdout
        for flag in ("--backend", "--workers"):
            assert flag not in result.stdout

    @pytest.mark.parametrize("flag, operand, reason", [
        ("--workers", "2", "every benchmarked walk runs in one process"),
    ], ids=["--workers"])
    def test_rejects_with_pinned_text(self, flag, operand, reason):
        result = run_bench("--bench", "--quick", flag, operand)
        assert result.returncode == 2
        assert rejection_message(flag, "experiments", reason) in result.stderr

    def test_backend_is_not_a_flag(self):
        result = run_bench("--bench", "--backend", "x")
        assert result.returncode == 2
        assert "unrecognized arguments: --backend" in result.stderr


class TestNoBackendFlag:
    @pytest.mark.parametrize("command", ["verify", "sweep", "fuzz"])
    def test_unrecognized(self, command, capsys):
        err = run_expecting_usage_error(
            [command, "--problem", "figure-1-mutex", "--backend", "x"], capsys
        )
        assert "unrecognized arguments: --backend x" in err


# -- the farm front end ------------------------------------------------

#: Each farm command's grid flags, with an operand (``None`` for a
#: switch).  Several are given at their default value: ``--resume``
#: refuses a grid flag whatever its value.
GRID_FLAGS = {
    "sweep": [
        ("--problem", "figure-1-mutex"),
        ("--instance", "figure-1-mutex(m=3)"),
        ("--param", "m=3"),
        ("--namings", "identity,random:1"),  # the default here
        ("--adversaries", "random:3"),
        ("--max-steps", "200000"),  # the default
        ("--retain-graph", None),
        ("--verify-max-states", "10"),
        ("--out", "elsewhere"),
    ],
    "fuzz": [
        ("--problem", "figure-1-mutex"),
        ("--instance", "figure-1-mutex-even-m"),
        ("--param", "m=3"),
        ("--seed", "0"),  # the default
        ("--max-states", "5"),
        ("--episodes", "64"),  # the default
        ("--max-steps", "256"),  # the default
        ("--families", "random"),
        ("--episodes-per-cell", "8"),  # the default
        ("--out", "elsewhere"),
    ],
}

#: A two-cell grid per farm command.
GRIDS = {
    "sweep": {
        "problem": "figure-1-mutex",
        "instance": "figure-1-mutex(m=3)",
        "namings": [{"type": "identity"}],
        "adversaries": [
            {"type": "random", "seed": 1}, {"type": "random", "seed": 2},
        ],
        "max_steps": 2_000,
    },
    "fuzz": {
        "problem": "figure-1-mutex",
        "instance": "figure-1-mutex-even-m",
        "params": None,
        "fuzz": {
            "seed": 7, "episodes": 8, "max_steps": 64, "max_states": None,
            "families": None, "episodes_per_cell": 4,
        },
    },
}


def half_drained_farm(directory, command):
    """A farm of ``command``'s grid with one cell done, one pending."""
    create_farm(directory, GRIDS[command])
    drain_farm(directory, max_cells=1)
    return directory


@pytest.fixture(scope="module")
def resume_targets(tmp_path_factory):
    return {
        command: half_drained_farm(
            tmp_path_factory.mktemp(command) / "farm", command
        )
        for command in GRIDS
    }


class TestResumeRefusesGridFlags:
    """A farm directory stores its grid, so ``--resume`` refuses each
    flag that shapes one: exit 2, naming the flag, and every run-table
    row left as it was."""

    @pytest.mark.parametrize("command, flag, operand", [
        pytest.param(command, flag, operand, id=f"{command}{flag}")
        for command, flags in GRID_FLAGS.items()
        for flag, operand in flags
    ])
    def test_exit_2_names_the_flag(
        self, resume_targets, command, flag, operand, capsys
    ):
        farm = resume_targets[command]
        before = farm_result(farm).rows
        err = run_expecting_usage_error(
            [command, "--resume", str(farm), flag]
            + ([operand] if operand is not None else []),
            capsys,
        )
        assert err.rstrip().endswith(
            "error: --resume takes its grid from the farm directory; "
            f"drop {flag}"
        )
        assert farm_result(farm).rows == before

    def test_every_grid_flag_given_is_named(self, resume_targets, capsys):
        err = run_expecting_usage_error(
            ["sweep", "--resume", str(resume_targets["sweep"]),
             "--max-steps", "5", "--namings", "random:3"],
            capsys,
        )
        assert err.rstrip().endswith("drop --namings, --max-steps")

    @pytest.mark.parametrize("command, flags", [
        ("sweep", ["--workers", "2", "--max-attempts", "2"]),
        ("fuzz", ["--workers", "2", "--max-attempts", "2",
                  "--expect-violation"]),
    ], ids=["sweep", "fuzz"])
    def test_farm_flags_are_accepted(self, command, flags, tmp_path, capsys):
        farm = half_drained_farm(tmp_path / "farm", command)
        assert main([command, "--resume", str(farm), *flags]) == 0
        assert "resume: reclaimed 0 cell(s), 1 cell(s) to run" in (
            capsys.readouterr().out
        )
        assert farm_result(farm).complete
