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
