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
