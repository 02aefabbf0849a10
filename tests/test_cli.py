"""Tests for the ``python -m repro`` command-line interface."""

import importlib.abc
import importlib.util
import sys

import pytest

from repro.__main__ import main


class TestCli:
    def test_default_is_demo(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 2" in out and "Figure 3" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "new names" in out

    def test_verify_reports_ok(self, capsys):
        assert main([
            "verify",
            "--instance", "figure-1-mutex(m=3)",
            "--instance", "figure-2-consensus(n=2)",
            "--instance", "figure-3-renaming(n=2)",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("[OK ]") == 3
        assert "safety exhaustive" in out
        assert "deadlock-freedom (Theorem 3.3) holds" in out
        assert "obstruction-freedom (Theorem 4.1) holds" in out
        assert "obstruction-freedom (Theorem 5.1) holds" in out

    def test_verify_mutant_reports_seeded_lasso_as_ok(self, capsys):
        assert main(
            ["verify", "--instance", "figure-1-mutex-even-m(m=4)"]
        ) == 0
        out = capsys.readouterr().out
        assert "[OK ]" in out
        assert "deadlock-freedom (Theorem 3.4) violated (as seeded)" in out
        assert "lasso:" in out and "repeat" in out

    def test_verify_ends_a_typed_run_error_and_runs_the_rest(
        self, monkeypatch, capsys
    ):
        import repro.verify
        from repro.errors import ProtocolError

        real = repro.verify.verify_instance

        def failing(spec, inst, **kwargs):
            if inst.label == "figure-1-mutex(m=5)":
                raise ProtocolError("process 101 stepped a poisoned op")
            return real(spec, inst, **kwargs)

        monkeypatch.setattr(repro.verify, "verify_instance", failing)
        assert main([
            "verify",
            "--instance", "figure-1-mutex(m=3)",
            "--instance", "figure-1-mutex(m=5)",
            "--instance", "figure-2-consensus(n=2)",
        ]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "[error] figure-1-mutex(m=5): ProtocolError: "
            "process 101 stepped a poisoned op\n"
        )
        assert [
            line.split(":")[0] for line in captured.out.splitlines()
            if line.startswith("[")
        ] == ["[OK ] figure-1-mutex(m=3)", "[OK ] figure-2-consensus(n=2)"]

    def test_verify_list_enumerates_registry_instances(self, capsys):
        assert main(["verify", "--list"]) == 0
        out = capsys.readouterr().out
        assert "figure-1-mutex(m=7): deadlock-freedom (Theorem 3.3)" in out
        assert "[expect violation]" in out

    def test_verify_unknown_instance_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--instance", "no-such-instance"])
        assert "known:" in capsys.readouterr().err

    def test_verify_writes_report_readable_manifests(self, tmp_path, capsys):
        assert main([
            "verify",
            "--instance", "figure-1-mutex(m=3)",
            "--telemetry", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 run(s), all schema-valid" in out
        assert "verified" in out

    def test_attack_finds_violations(self, capsys):
        assert main(["attack"]) == 0
        out = capsys.readouterr().out
        assert "DF violation" in out
        assert "Theorem 3.1" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_report_renders_a_manifest_directory(self, tmp_path, capsys):
        from repro.obs import RunManifest

        RunManifest.create(
            kind="exploration",
            algorithm="mutex m=3 (n=2)",
            outcome={"verdict": "exhaustive-ok"},
        ).write(tmp_path / "run.json")
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 run(s), all schema-valid" in out
        assert "exhaustive-ok" in out

    def test_report_without_argument_is_a_usage_error(self, capsys):
        assert main(["report"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_help_text_is_honest_about_the_experiment_index(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "E1-E14" in out and "E1-E17" in out
        assert "report" in out


class TestUnknownProblem:
    """An unknown ``--problem`` is a usage error on every command that
    runs one: exit 2, the key named, and no run table left behind."""

    @pytest.mark.parametrize("command, farm", [
        ("fuzz", False), ("fuzz", True), ("verify", False),
        ("sweep", False), ("sweep", True),
    ], ids=["fuzz", "fuzz-out", "verify", "sweep", "sweep-out"])
    def test_exits_2_naming_the_key(self, command, farm, tmp_path, capsys):
        out = tmp_path / "farm"
        argv = [command, "--problem", "nope"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + (["--out", str(out)] if farm else []))
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: unknown problem 'nope'; known: [" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_create_farm_resolves_before_the_table(self, tmp_path):
        from repro.errors import ConfigurationError
        from repro.farm import create_farm

        config = {"problem": "nope", "namings": [{"type": "identity"}],
                  "adversaries": [{"type": "round-robin"}], "max_steps": 10}
        with pytest.raises(ConfigurationError, match="unknown problem 'nope'"):
            create_farm(tmp_path / "farm", config)
        assert not (tmp_path / "farm").exists()


class TestZeroBudgets:
    """A zero or negative budget on ``verify`` or ``sweep`` is a usage
    error checked before any work: exit 2, the RunRequest text, and no
    directory left behind."""

    @pytest.mark.parametrize("argv, text", [
        (["verify", "--instance", "figure-1-mutex(m=3)",
          "--max-states", "0"],
         "RunRequest.max_states must be a positive int, got 0"),
        (["verify", "--instance", "figure-1-mutex(m=3)",
          "--max-states", "-5"],
         "RunRequest.max_states must be a positive int, got -5"),
        (["sweep", "--problem", "figure-1-mutex", "--retain-graph",
          "--verify-max-states", "0"],
         "RunRequest.max_states must be a positive int, got 0"),
        (["sweep", "--problem", "figure-1-mutex", "--retain-graph",
          "--verify-max-states", "-1"],
         "RunRequest.max_states must be a positive int, got -1"),
        (["sweep", "--problem", "figure-1-mutex", "--max-steps", "0"],
         "RunRequest.max_steps must be a positive int, got 0"),
        (["sweep", "--problem", "figure-1-mutex", "--max-steps", "-3"],
         "RunRequest.max_steps must be a positive int, got -3"),
    ], ids=[
        "verify-max-states-0", "verify-max-states-negative",
        "sweep-verify-max-states-0", "sweep-verify-max-states-negative",
        "sweep-max-steps-0", "sweep-max-steps-negative",
    ])
    @pytest.mark.parametrize("to_disk", [False, True], ids=["memory", "out"])
    def test_usage_error_before_any_work(
        self, argv, text, to_disk, tmp_path, capsys
    ):
        out = tmp_path / "out"
        if to_disk:
            # verify writes its manifests to --telemetry DIR; sweep
            # drains a farm at --out DIR.
            flag = "--telemetry" if argv[0] == "verify" else "--out"
            argv = argv + [flag, str(out)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"error: {text}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""  # not one cell or instance ran
        assert not out.exists()


M3 = "figure-1-mutex(m=3)"
MUTANT = "figure-1-mutex-even-m"
MUTEX_SWEEP = [
    "sweep", "--problem", "figure-1-mutex", "--instance", M3,
    "--namings", "identity",
]
ONE_ADVERSARY = ["--adversaries", "round-robin", "--max-steps", "2000"]
MUTANT_SWEEP = [
    "sweep", "--problem", MUTANT, "--retain-graph", "--namings", "identity",
    *ONE_ADVERSARY,
]


def mutex_fuzz(instance=M3, episodes="4"):
    return [
        "fuzz", "--problem", "figure-1-mutex", "--instance", instance,
        "--seed", "7", "--episodes", episodes,
    ]


LADDER_FUZZ = [
    "fuzz", "--problem", "ladder-consensus", "--seed", "7", "--episodes", "16",
]
HORIZON = "ProtocolError: process 101 exceeded the simulation horizon"

#: (command and outcome, mode, argv, exit code, first line).  ``{out}``
#: stands for the farm directory ``--out`` names.
MATRIX = [
    # usage error
    ("verify-usage", "", ["verify", "--instance", M3, "--max-states", "0"],
     2, "error: RunRequest.max_states must be a positive int, got 0"),
    *[
        (f"sweep-usage-{name}", mode, [*MUTEX_SWEEP, *argv], 2, line)
        for mode in ("memory", "out")
        for name, argv, line in [
            ("max-steps", ["--max-steps", "0"],
             "error: RunRequest.max_steps must be a positive int, got 0"),
            ("verify-budget", ["--verify-max-states", "5"],
             "error: --verify-max-states budgets the verify cell; "
             "add --retain-graph"),
        ]
    ],
    *[
        (f"fuzz-usage-{name}", mode, argv, 2, line)
        for name, mode, argv, line in [
            ("episodes", "one-shot", mutex_fuzz(episodes="-1"),
             "error: --episodes must be >= 1, got -1"),
            ("episodes", "out", mutex_fuzz(episodes="-1"),
             "error: --episodes must be >= 1, got -1"),
            ("per-cell", "one-shot",
             [*mutex_fuzz(), "--episodes-per-cell", "4"],
             "error: --episodes-per-cell shards farm cells; add --out DIR"),
            ("per-cell", "out", [*mutex_fuzz(), "--episodes-per-cell", "0"],
             "error: episodes_per_cell must be >= 1, got 0"),
        ]
    ],
    # typed run error
    ("verify-run-error", "", ["verify", "--instance", M3, "--max-states", "10"],
     1, f"[FAIL] {M3}: {M3}: exploration truncated by max_states"),
    ("sweep-run-error", "memory", ["sweep", "--problem", "ladder-consensus"],
     1, "ladder-consensus: 3 cells — 2 done, 0 pending, 0 claimed, 1 error"),
    ("sweep-run-error", "out", ["sweep", "--problem", "ladder-consensus"],
     1, "farm: 3 cell(s) at {out}"),
    ("fuzz-run-error", "one-shot", LADDER_FUZZ,
     1, f"[error] ladder-consensus: {HORIZON}"),
    ("fuzz-run-error", "out", LADDER_FUZZ, 1, "fuzz farm: 2 cell(s) at {out}"),
    # nothing selected
    ("verify-nothing", "", ["verify", "--problem", "ladder-consensus"],
     2, "error: problem(s) ['ladder-consensus'] declare no verify-role "
     "instance"),
    *[
        (f"sweep-nothing-{flag[2:]}", mode, [*MUTEX_SWEEP, flag, ","], 2,
         f"error: {flag} ',' names no spec; nothing to run")
        for mode in ("memory", "out")
        for flag in ("--namings", "--adversaries")
    ],
    *[
        (f"fuzz-nothing-{name}", mode, argv, 2, line)
        for mode in ("one-shot", "out")
        for name, argv, line in [
            ("episodes", mutex_fuzz(episodes="0"),
             "error: --episodes must be >= 1, got 0"),
            ("families", [*mutex_fuzz(), "--families", ","],
             "error: --families ',' names no strategy family; "
             "nothing to run"),
        ]
    ],
    # violation: the registry's seeded mutant
    ("verify-violation", "", ["verify", "--instance", f"{MUTANT}(m=4)"],
     0, f"[OK ] {MUTANT}(m=4): "),
    ("sweep-violation", "memory", MUTANT_SWEEP,
     0, f"{MUTANT}: 2 cells — 2 done, 0 pending, 0 claimed, 0 error"),
    ("sweep-violation", "out", MUTANT_SWEEP, 0, "farm: 2 cell(s) at {out}"),
    ("fuzz-violation", "one-shot", mutex_fuzz(MUTANT),
     1, f"{MUTANT}(m=4): 4 episode(s), "),
    ("fuzz-violation", "out", mutex_fuzz(MUTANT),
     1, "fuzz farm: 1 cell(s) at {out}"),
    # clean
    ("verify-clean", "", ["verify", "--instance", M3], 0, f"[OK ] {M3}: "),
    ("sweep-clean", "memory", MUTEX_SWEEP + ONE_ADVERSARY,
     0, "figure-1-mutex: 1 cells — 1 done, 0 pending, 0 claimed, 0 error"),
    ("sweep-clean", "out", MUTEX_SWEEP + ONE_ADVERSARY,
     0, "farm: 1 cell(s) at {out}"),
    ("fuzz-clean", "one-shot", mutex_fuzz(), 0, f"{M3}: 4 episode(s), "),
    ("fuzz-clean", "out", mutex_fuzz(), 0, "fuzz farm: 1 cell(s) at {out}"),
]


class TestExitCodeMatrix:
    """How ``verify``, ``sweep`` and ``fuzz`` end: {usage error, typed
    run error, nothing selected, violation, clean} -> exit code and
    first line, in each of ``sweep``'s and ``fuzz``'s modes (in memory
    or one-shot, and ``--out``).

    The first line is the first line on stdout, or on stderr when
    stdout is empty.  argparse starts a usage error with its synopsis,
    so for exit 2 the row pins the ``error:`` line after it.  A usage
    error or an empty selection runs nothing and leaves no directory.

    Cells that cannot occur with a registry instance:

    * verify, typed run error other than ``VerificationError``: no
      registered instance raises one.  The row pins the
      ``VerificationError`` a too-small ``--max-states`` raises;
      ``test_verify_ends_a_typed_run_error_and_runs_the_rest`` pins
      the ``[error]`` line with a patched ``verify_instance``.
    * every command, an unexpected violation: every registered
      instance keeps its declared properties.  The rows run the seeded
      mutant, whose deadlock-freedom violation ``verify`` and the
      sweep's verify cell expect (exit 0) and ``fuzz`` reports as a hit
      (exit 1; 0 with ``--expect-violation``).  A sweep's run cells
      check safety only, which the mutant keeps.

    ladder-consensus runs past its simulation horizon, which ends as a
    typed run error (``ProtocolError``) in every command that runs it.
    """

    @pytest.mark.parametrize(
        "mode, argv, code, line",
        [row[1:] for row in MATRIX],
        ids=[f"{row[0]}-{row[1]}".rstrip("-") for row in MATRIX],
    )
    def test_ending(self, mode, argv, code, line, tmp_path, capsys):
        out = tmp_path / "farm"
        if mode == "out":
            argv = [*argv, "--out", str(out)]
        try:
            ended = main(argv)
        except SystemExit as exc:
            ended = exc.code
        captured = capsys.readouterr()
        assert ended == code
        assert "Traceback" not in captured.err
        if code == 2:
            assert captured.out == ""
            assert not out.exists()
            first = captured.err.splitlines()[-1].split(": ", 1)[1]
        else:
            first = (captured.out or captured.err).splitlines()[0]
        assert first.startswith(line.format(out=out))


class TestExperimentsCommand:
    """``repro experiments`` runs benchmarks/run_experiments.py; the
    script is stubbed here, so only the hand-over is under test."""

    def test_runs_every_experiment_and_returns_its_exit_code(
        self, monkeypatch
    ):
        calls = []

        class _StubScript(importlib.abc.Loader):
            def create_module(self, spec):
                return None

            def exec_module(self, module):
                def stub_main(argv=None):
                    calls.append(argv)
                    return 3

                module.main = stub_main

        monkeypatch.setattr(
            importlib.util,
            "spec_from_file_location",
            lambda name, path: importlib.util.spec_from_loader(
                name, _StubScript()
            ),
        )
        monkeypatch.setattr(sys, "argv", ["repro", "experiments"])
        assert main(["experiments"]) == 3
        # An empty argv, not this process's: no name filter, so every
        # experiment runs.
        assert calls == [[]]
