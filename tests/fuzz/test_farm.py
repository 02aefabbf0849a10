"""Fuzz cells on the disk farm: sharding, aggregation, resume identity.

The properties pinned here mirror the sweep farm's (PR 8) for the new
``fuzz`` cell kind: episode ranges shard deterministically, a sharded
farm reproduces the one-shot engine's violations byte-for-byte (episode
RNGs derive from the *global* episode index, so cell boundaries are
invisible), and a farm killed mid-cell resumes to results identical to
an uninterrupted run.
"""

import json
import random

import pytest

from repro.__main__ import main
from repro.errors import FarmError
from repro.farm import (
    create_farm,
    drain_farm,
    farm_result,
    grid_cells,
    resume_farm,
    run_farm,
)
from repro.fuzz import engine, shrink
from repro.fuzz.cli import aggregate_fuzz_rows
from repro.fuzz.engine import run_fuzz
from repro.obs.manifest import load_manifests
from repro.request import RunRequest

EPISODES = 16
PER_CELL = 4


def fuzz_config(episodes=EPISODES, per_cell=PER_CELL, max_attempts=1, **fuzz):
    return {
        "problem": "figure-1-mutex",
        "instance": "figure-1-mutex-even-m",
        "params": None,
        "fuzz": {
            "seed": 7,
            "episodes": episodes,
            "max_steps": 64,
            "max_states": None,
            "families": None,
            "episodes_per_cell": per_cell,
            **fuzz,
        },
        "max_attempts": max_attempts,
    }


def one_shot_report():
    return run_fuzz(
        RunRequest(
            problem="figure-1-mutex",
            instance="figure-1-mutex-even-m",
            seed=7,
            max_steps=64,
        ),
        episodes=EPISODES,
    )


class Killed(RuntimeError):
    """Stands in for SIGKILL: raised after the claim commits."""


class TestFuzzGrid:
    def test_episodes_shard_into_fuzz_cells(self):
        cells = grid_cells(fuzz_config())
        assert [cell.kind for cell in cells] == ["fuzz"] * 4
        assert [cell.payload["episode_base"] for cell in cells] == [0, 4, 8, 12]
        assert all(cell.payload["episodes"] == 4 for cell in cells)

    def test_ragged_final_cell(self):
        cells = grid_cells(fuzz_config(episodes=10, per_cell=4))
        assert [cell.payload["episodes"] for cell in cells] == [4, 4, 2]
        assert cells[-1].payload["episode_base"] == 8

    def test_sharding_is_deterministic(self):
        assert grid_cells(fuzz_config()) == grid_cells(fuzz_config())

    @pytest.mark.parametrize("per_cell", [0, -4])
    def test_a_non_positive_cell_size_is_refused(self, per_cell):
        with pytest.raises(FarmError, match="episodes_per_cell must be >= 1"):
            grid_cells(fuzz_config(per_cell=per_cell))


class TestFuzzFarmEquivalence:
    def test_sharded_farm_matches_one_shot_engine(self, tmp_path):
        farm = tmp_path / "farm"
        create_farm(farm, fuzz_config())
        result = drain_farm(farm)
        assert result.complete

        summary = aggregate_fuzz_rows(result.rows)
        reference = one_shot_report()
        assert summary["episodes_run"] == reference.episodes_run == EPISODES
        assert summary["steps"] == reference.steps
        # cell boundaries are invisible: same violations, byte for byte
        assert summary["violations"] == [
            v.to_dict() for v in reference.violations
        ]
        assert summary["violations_by_family"] == dict(reference.by_family())

    @pytest.mark.parametrize("kernel", ["interpreted", "compiled"])
    def test_a_stored_kernel_resumes_on_the_memo_search(
        self, tmp_path, capsys, kernel
    ):
        # Older fuzz grids stored the search's kernel; either value
        # resumes and drains on the one memo search.
        farm = tmp_path / "farm"
        create_farm(farm, fuzz_config(kernel=kernel))
        drain_farm(farm, max_cells=2)
        assert main(["fuzz", "--resume", str(farm), "--expect-violation"]) == 0
        assert "2 cell(s) to run" in capsys.readouterr().out

        result = farm_result(farm)
        assert result.complete
        summary = aggregate_fuzz_rows(result.rows)
        reference = one_shot_report()
        assert summary["steps"] == reference.steps
        assert summary["violations"] == [
            v.to_dict() for v in reference.violations
        ]
        assert {row.result["effective_kernel"] for row in result.rows} == {
            "interpreted"
        }

    def test_fuzz_cell_manifests_have_fuzz_kind(self, tmp_path):
        farm = tmp_path / "farm"
        create_farm(farm, fuzz_config())
        drain_farm(farm, worker="w0")
        manifests = load_manifests(farm / "manifests-w0.ndjson")
        assert len(manifests) == 4
        assert {m.kind for m in manifests} == {"fuzz"}


def cell_report(instance, seed, base, memos=None):
    """One 8-episode fuzz cell's report, as the bytes a farm row holds."""
    report = run_fuzz(
        RunRequest(problem="figure-1-mutex", instance=instance, seed=seed),
        episodes=8,
        episode_base=base,
        memos=memos,
    )
    return json.dumps(report.to_dict(), sort_keys=True)


class TestSharedStepMemo:
    """A drain runs every fuzz cell it claims on one step memo per
    target; no cell may tell which cells ran on it before."""

    @pytest.mark.parametrize("seed", [7, 11, 12345])
    @pytest.mark.parametrize("instance", [
        "figure-1-mutex-even-m", "figure-1-mutex(m=7)", "figure-1-mutex(m=3)",
    ])
    def test_cell_reports_do_not_depend_on_the_cells_before(
        self, instance, seed
    ):
        bases = list(range(0, 64, 8))
        fresh = {base: cell_report(instance, seed, base) for base in bases}
        shuffled = list(bases)
        random.Random(seed).shuffle(shuffled)
        for order in (bases, bases[::-1], shuffled):
            memos = {}
            shared = {
                base: cell_report(instance, seed, base, memos) for base in order
            }
            assert shared == fresh
            (memo,) = memos.values()
            assert len(memo.states) > 1

    def test_one_dict_keeps_a_memo_per_target(self):
        targets = ("figure-1-mutex(m=3)", "figure-1-mutex(m=7)")
        memos = {}
        for instance in targets * 2:
            assert cell_report(instance, 7, 0, memos) == cell_report(
                instance, 7, 0
            )
        assert sorted(memos) == [("figure-1-mutex", label) for label in targets]

    @pytest.mark.parametrize("instance", [
        "figure-1-mutex-even-m", "figure-1-mutex(m=7)",
    ])
    def test_a_drain_steps_the_kernel_as_often_as_one_shot(
        self, instance, tmp_path, monkeypatch
    ):
        step_calls = []
        real = shrink.step_value

        def counting(*args):
            step_calls.append(None)
            return real(*args)

        monkeypatch.setattr(shrink, "step_value", counting)
        one_shot = run_fuzz(
            RunRequest(
                problem="figure-1-mutex", instance=instance, seed=7,
                max_steps=64,
            ),
            episodes=64,
        )
        expected = len(step_calls)
        step_calls.clear()
        config = fuzz_config(episodes=64, per_cell=8)
        config["instance"] = instance
        farm = tmp_path / "farm"
        create_farm(farm, config)
        result = drain_farm(farm)
        assert result.complete
        assert len(step_calls) == expected
        summary = aggregate_fuzz_rows(result.rows)
        assert summary["violations"] == [
            v.to_dict() for v in one_shot.violations
        ]

    def test_certification_never_receives_the_drain_memo(self, monkeypatch):
        judged = []

        def recording(oracle):
            def judge(memo, entry, cycle):
                judged.append(memo)
                return oracle(memo, entry, cycle)
            return judge

        monkeypatch.setattr(engine, "LASSO_ORACLES", {
            kind: recording(oracle)
            for kind, oracle in engine.LASSO_ORACLES.items()
        })
        memos = {}
        reports = [
            cell_report("figure-1-mutex-even-m", 7, base, memos)
            for base in (0, 8, 16)
        ]
        hits = [
            violation
            for report in reports
            for violation in json.loads(report)["violations"]
        ]
        witnesses = {
            (v["kind"], tuple(v["prefix"]), tuple(v["cycle"])) for v in hits
        }
        # The drain memo's certified-witness table publishes a repeated
        # raw witness without judging it again, so certification judges
        # each distinct witness once, through a fresh memo of its own.
        assert len(witnesses) < len(hits)
        assert len(judged) == len(witnesses)
        (drain_memo,) = memos.values()
        assert all(memo is not drain_memo for memo in judged)
        assert len({id(memo) for memo in judged}) == len(witnesses)

    def test_a_failed_cell_leaves_the_cells_after_it_alone(
        self, tmp_path, monkeypatch
    ):
        config = fuzz_config(episodes=32, per_cell=4)
        reference = tmp_path / "reference"
        create_farm(reference, config)
        expected = drain_farm(reference).rows

        farm = tmp_path / "farm"
        create_farm(farm, config)
        drain_farm(farm, max_cells=1)

        # The next drain fails a kernel step in the middle of cell 1:
        # it marks the cell, drops its memos and goes on.
        run_memos = []

        class RecordingMemo(engine.StepMemo):
            def __init__(self, instance, invariant=None):
                super().__init__(instance, invariant)
                if invariant is not None:  # certification's have none
                    run_memos.append(self)

        real = shrink.step_value
        steps = []

        def poisoned(*args):
            steps.append(None)
            if len(steps) == 10:
                raise RuntimeError("poisoned step")
            return real(*args)

        monkeypatch.setattr(engine, "StepMemo", RecordingMemo)
        monkeypatch.setattr(shrink, "step_value", poisoned)
        rows = drain_farm(farm).rows

        assert [(row.status, row.error) for row in rows[:2]] == [
            ("done", None), ("error", "RuntimeError: poisoned step"),
        ]
        assert [row.result for row in rows[2:]] == [
            row.result for row in expected[2:]
        ]
        # Cell 1's memo was dropped with it; cell 2 built a fresh one.
        assert len(run_memos) == 2


class TestFuzzResumeIdentity:
    def test_killed_farm_resumes_bit_identical(self, tmp_path):
        config = fuzz_config()
        ref = tmp_path / "reference"
        create_farm(ref, config)
        ref_rows = drain_farm(ref).rows

        farm = tmp_path / "farm"
        create_farm(farm, config)

        def kill_on_cell_2(cell):
            if cell.index == 2:
                raise Killed("worker killed after claim")

        with pytest.raises(Killed):
            drain_farm(farm, worker="w0", fault_injector=kill_on_cell_2)
        mid = farm_result(farm)
        assert mid.counts == {"done": 2, "claimed": 1, "pending": 1, "error": 0}

        assert resume_farm(farm) == 1
        final = drain_farm(farm, worker="w0")
        assert final.complete
        assert [
            json.dumps(row.result, sort_keys=True) for row in final.rows
        ] == [
            json.dumps(row.result, sort_keys=True) for row in ref_rows
        ]

    def test_two_workers_match_serial(self, tmp_path):
        config = fuzz_config()
        ref = tmp_path / "reference"
        create_farm(ref, config)
        ref_rows = drain_farm(ref).rows

        farm = tmp_path / "farm"
        create_farm(farm, config)
        result = run_farm(farm, workers=2)
        assert result.complete
        assert [row.result for row in result.rows] == [
            row.result for row in ref_rows
        ]


class TestFuzzFarmCli:
    def test_out_then_resume_round_trip(self, tmp_path, capsys):
        out = tmp_path / "farm"
        code = main([
            "fuzz", "--problem", "figure-1-mutex",
            "--instance", "figure-1-mutex-even-m",
            "--seed", "7", "--episodes", "8", "--max-steps", "64",
            "--episodes-per-cell", "4", "--out", str(out),
        ])
        captured = capsys.readouterr().out
        assert code == 1  # violations found, no --expect-violation
        assert "fuzz farm: 2 cell(s)" in captured
        assert "[HIT]" in captured
        # resuming the completed farm re-reports without re-running
        code = main(["fuzz", "--resume", str(out), "--expect-violation"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "0 cell(s) to run" in captured
        assert "[HIT]" in captured

    def test_the_default_cell_size_is_stored_in_the_grid(self, tmp_path):
        from repro.farm import open_farm
        from repro.fuzz.cli import DEFAULT_EPISODES_PER_CELL

        out = tmp_path / "farm"
        assert main([
            "fuzz", "--problem", "figure-1-mutex", "--episodes", "16",
            "--max-steps", "64", "--out", str(out),
        ]) == 0
        with open_farm(out) as table:
            fuzz = table.meta()["grid"]["fuzz"]
        assert fuzz["episodes_per_cell"] == DEFAULT_EPISODES_PER_CELL == 8
        assert len(farm_result(out).rows) == 2

    def test_one_shot_flags_rejected_in_farm_mode(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main([
                "fuzz", "--problem", "figure-1-mutex",
                "--out", str(tmp_path / "farm"), "--max-violations", "1",
            ])
        assert "one-shot only" in capsys.readouterr().err


class TestFuzzManifestVerdicts:
    """``repro report`` shows each fuzz manifest's verdict: ``violation``
    on the even-m mutant, ``ok`` on mutex m=3, one-shot and farmed."""

    TARGETS = [
        ("figure-1-mutex-even-m", "violation"),
        ("figure-1-mutex(m=3)", "ok"),
    ]

    @staticmethod
    def fuzz(instance, *flags):
        main([
            "fuzz", "--problem", "figure-1-mutex", "--instance", instance,
            "--seed", "7", "--episodes", "8", "--max-steps", "64", *flags,
        ])

    @staticmethod
    def reported_verdicts(capsys, directory):
        """The verdict column of the report's fuzz rows, in order."""
        capsys.readouterr()
        assert main(["report", str(directory)]) == 0
        rows = [
            line.split()
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("fuzz ")
        ]
        return [
            next(word for word in row if word in ("ok", "violation", "?"))
            for row in rows
        ]

    def test_one_shot_telemetry_manifests(self, tmp_path, capsys):
        telemetry = tmp_path / "telemetry"
        for instance, _verdict in self.TARGETS:
            self.fuzz(instance, "--telemetry", str(telemetry))
        verdicts = self.reported_verdicts(capsys, telemetry)
        assert sorted(verdicts) == sorted(v for _, v in self.TARGETS)
        by_instance = {
            manifest.parameters["instance"]: manifest.verdict()
            for path in sorted(telemetry.iterdir())
            for manifest in load_manifests(path)
        }
        assert by_instance == {
            "figure-1-mutex-even-m(m=4)": "violation",
            "figure-1-mutex(m=3)": "ok",
        }

    @pytest.mark.parametrize("instance, verdict", TARGETS)
    def test_farm_manifests(self, tmp_path, capsys, instance, verdict):
        farm = tmp_path / "farm"
        self.fuzz(instance, "--episodes-per-cell", "4", "--out", str(farm))
        assert self.reported_verdicts(capsys, farm) == [verdict, verdict]
