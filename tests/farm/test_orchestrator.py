"""Farm orchestration tests: drain, crash, resume, multi-process, CLI.

The acceptance property pinned here is resume identity: a farm killed
mid-cell (simulated by a fault injector that raises *after* the claim
transaction commits — byte-for-byte the state SIGKILL leaves) and
restarted with resume produces per-cell results, manifests and retained
graph digests identical to an uninterrupted run, with no cell executed
twice.
"""

import pytest

from repro.__main__ import main
from repro.errors import FarmError
from repro.farm import (
    Cell,
    SqliteRunTable,
    create_farm,
    drain_farm,
    drain_table,
    farm_result,
    grid_cells,
    is_farm_dir,
    resolve_grid_target,
    resume_farm,
    run_farm,
)
from repro.obs.manifest import load_manifests
from repro.problems import problem_specs


def make_config(retain_graph=False, adversary_seeds=(1, 2, 3)):
    return {
        "problem": "figure-1-mutex",
        "instance": "figure-1-mutex(m=3)",
        "namings": [{"type": "identity"}, {"type": "random", "seed": 1}],
        "adversaries": [
            {"type": "random", "seed": seed} for seed in adversary_seeds
        ],
        "max_steps": 2_000,
        "retain_graph": retain_graph,
    }


def reference_rows(tmp_path, config):
    """Rows of an uninterrupted serial farm over ``config``."""
    ref = tmp_path / "reference"
    create_farm(ref, config)
    return drain_farm(ref).rows, ref


class Killed(RuntimeError):
    """Stands in for SIGKILL: raised after the claim commits."""


class TestGrid:
    def test_grid_is_naming_major_and_deterministic(self):
        config = make_config(retain_graph=True)
        cells = grid_cells(config)
        assert [cell.kind for cell in cells] == ["run"] * 6 + ["verify"]
        assert [cell.index for cell in cells] == list(range(7))
        assert cells[0].payload["naming"] == {"type": "identity"}
        assert cells[0].payload["adversary"] == {"type": "random", "seed": 1}
        assert cells[3].payload["naming"] == {"type": "random", "seed": 1}
        assert grid_cells(config) == cells

    def test_empty_grid_rejected(self, tmp_path):
        config = make_config()
        config["namings"] = []
        with pytest.raises(FarmError, match="zero cells"):
            create_farm(tmp_path / "farm", config)


class TestDrain:
    def test_drain_completes_every_cell(self, tmp_path):
        config = make_config()
        create_farm(tmp_path / "farm", config)
        result = drain_farm(tmp_path / "farm")
        assert result.complete
        assert result.counts["done"] == 6
        assert all(row.result["verdict"] == "ok" for row in result.rows)
        assert all(row.attempts == 1 for row in result.rows)

    def test_results_deterministic_across_farms(self, tmp_path):
        config = make_config()
        ref_rows, _ = reference_rows(tmp_path, config)
        create_farm(tmp_path / "again", config)
        again = drain_farm(tmp_path / "again")
        assert [row.result for row in again.rows] == [
            row.result for row in ref_rows
        ]

    def test_manifests_one_line_per_done_cell(self, tmp_path):
        config = make_config()
        create_farm(tmp_path / "farm", config)
        drain_farm(tmp_path / "farm", worker="w0")
        manifests = load_manifests(tmp_path / "farm" / "manifests-w0.ndjson")
        assert len(manifests) == 6
        assert {m.kind for m in manifests} == {"farm-cell"}
        assert sorted(m.parameters["cell"] for m in manifests) == list(range(6))

    def test_broken_cell_goes_to_error_and_drain_continues(self, tmp_path):
        config = make_config()
        config["max_steps"] = "bogus"  # TypeError inside each cell's run
        create_farm(tmp_path / "farm", config)
        result = drain_farm(tmp_path / "farm")
        assert not result.complete
        assert result.counts["error"] == 6
        assert all("Error" in row.error or ":" in row.error for row in result.errors)
        # error is terminal: resume reclaims nothing and retries nothing
        assert resume_farm(tmp_path / "farm") == 0
        assert drain_farm(tmp_path / "farm").counts["error"] == 6


class TestCrashResume:
    def test_killed_cell_stays_claimed_then_resume_matches_reference(
        self, tmp_path
    ):
        config = make_config(retain_graph=True)
        ref_rows, _ = reference_rows(tmp_path, config)

        farm = tmp_path / "farm"
        create_farm(farm, config)

        def kill_on_cell_3(cell):
            if cell.index == 3:
                raise Killed("worker killed after claim")

        with pytest.raises(Killed):
            drain_farm(farm, worker="w0", fault_injector=kill_on_cell_3)

        mid = farm_result(farm)
        assert mid.counts == {"done": 3, "claimed": 1, "pending": 3, "error": 0}
        claimed = next(row for row in mid.rows if row.status == "claimed")
        assert claimed.index == 3

        # resume: exactly the one stale claim is reclaimed, then the
        # farm finishes with results identical to the uninterrupted run
        assert resume_farm(farm) == 1
        final = drain_farm(farm, worker="w0")
        assert final.complete
        assert [row.result for row in final.rows] == [
            row.result for row in ref_rows
        ]

        # the reclaimed cell ran exactly twice-claimed, once-executed;
        # every other cell was claimed once — no cell executed twice
        assert [row.attempts for row in final.rows] == [1, 1, 1, 2, 1, 1, 1]
        manifests = load_manifests(farm / "manifests-w0.ndjson")
        cells_seen = [m.parameters["cell"] for m in manifests]
        assert sorted(cells_seen) == list(range(7))
        assert len(cells_seen) == len(set(cells_seen))

    def test_reclaimed_cell_manifest_identical_to_reference(self, tmp_path):
        config = make_config()
        _, ref_dir = reference_rows(tmp_path, config)

        farm = tmp_path / "farm"
        create_farm(farm, config)

        def kill_on_cell_2(cell):
            if cell.index == 2:
                raise Killed()

        with pytest.raises(Killed):
            drain_farm(farm, worker="w0", fault_injector=kill_on_cell_2)
        resume_farm(farm)
        drain_farm(farm, worker="w0")

        def deterministic(manifest):
            # host/git/created_at vary per run; worker/attempt are the
            # audit trail of the crash itself.  Everything else —
            # the cell's identity and its entire outcome — must match.
            params = {
                k: v
                for k, v in manifest.parameters.items()
                if k not in ("worker", "attempt")
            }
            return (manifest.kind, manifest.algorithm, manifest.naming,
                    manifest.adversary, params, manifest.outcome)

        ref = {
            m.parameters["cell"]: deterministic(m)
            for m in load_manifests(ref_dir / "manifests-w0.ndjson")
        }
        resumed = {
            m.parameters["cell"]: deterministic(m)
            for m in load_manifests(farm / "manifests-w0.ndjson")
        }
        assert resumed == ref
        reclaimed = next(
            m for m in load_manifests(farm / "manifests-w0.ndjson")
            if m.parameters["cell"] == 2
        )
        assert reclaimed.parameters["attempt"] == 2

    def test_verify_row_is_the_same_in_memory_on_disk_and_after_resume(
        self, tmp_path
    ):
        import hashlib

        from repro.verify.runner import verify_instance

        config = make_config(retain_graph=True, adversary_seeds=(1,))
        with SqliteRunTable.create(
            SqliteRunTable.MEMORY, grid_cells(config)
        ) as table:  # what `repro sweep` drains without --out
            drain_table(table, config, "cli")
            in_memory = table.rows()[-1]
        ref_rows, _ = reference_rows(tmp_path, config)

        farm = tmp_path / "farm"
        create_farm(farm, config)

        def kill_on_verify(cell):
            if cell.kind == "verify":
                raise Killed()

        with pytest.raises(Killed):
            drain_farm(farm, fault_injector=kill_on_verify)
        resume_farm(farm)
        resumed = drain_farm(farm).rows[-1]

        assert in_memory.kind == resumed.kind == "verify"
        assert in_memory.result == ref_rows[-1].result == resumed.result
        report = verify_instance(*resolve_grid_target(config))
        graph = report.exploration.graph
        assert in_memory.result == {
            "verdict": "verified",
            "instance": "figure-1-mutex(m=3)",
            "states": report.exploration.states_explored,
            "retained_edges": graph.edge_count,
            "properties": in_memory.result["properties"],
            "graph_sha256": hashlib.sha256(graph.to_bytes()).hexdigest(),
        }
        assert all(prop["ok"] for prop in in_memory.result["properties"])
        # The farm directory holds the run table and the manifests only.
        assert sorted(path.name for path in farm.iterdir()) == [
            "manifests-w0.ndjson", "runs.sqlite",
        ]


class TestMultiProcess:
    def test_two_workers_drain_identically_to_serial(self, tmp_path):
        config = make_config()
        ref_rows, _ = reference_rows(tmp_path, config)
        farm = tmp_path / "farm"
        create_farm(farm, config)
        result = run_farm(farm, workers=2)
        assert result.complete
        assert [row.result for row in result.rows] == [
            row.result for row in ref_rows
        ]
        # every done cell appears in exactly one worker's manifest stream
        cells = []
        for stream in sorted(farm.glob("manifests-*.ndjson")):
            cells.extend(
                m.parameters["cell"] for m in load_manifests(stream)
            )
        assert sorted(cells) == list(range(6))

    def test_fault_injector_is_single_process_only(self, tmp_path):
        create_farm(tmp_path / "farm", make_config())
        with pytest.raises(FarmError, match="single-process"):
            run_farm(tmp_path / "farm", workers=2, fault_injector=lambda c: None)


#: Problems whose first registered instance label differs from the
#: ``<key>(<k>=<v>,...)`` label a params grid synthesizes.
RELABELLED = [
    ("commit-adopt", "commit-adopt"),
    ("ladder-consensus", "ladder-consensus"),
    ("threshold-mutex", "threshold-mutex(m=3,t=2)"),
    ("partitioned-k-set", "partitioned-k-set(n=2,k=2)"),
    ("naive-lock", "naive-lock"),
    ("peterson-mutex", "peterson-mutex"),
]


class TestGridTarget:
    """A grid without params or instance runs the spec's first
    registered instance record, under its registered label."""

    @pytest.mark.parametrize("problem, label", RELABELLED)
    def test_default_is_the_registered_record(self, problem, label):
        from repro.problems import get_problem

        spec, record = resolve_grid_target(
            {"problem": problem, "instance": None, "params": None}
        )
        assert record is get_problem(problem).instances[0]
        assert (spec.key, record.label) == (problem, label)

    def test_params_keep_the_synthesized_label(self):
        _, record = resolve_grid_target({
            "problem": "threshold-mutex", "instance": None,
            "params": {"m": 3, "threshold": 2},
        })
        assert record.label == "threshold-mutex(m=3,threshold=2)"

    def test_verify_row_records_the_registered_label(self, tmp_path):
        out = tmp_path / "farm"
        assert main([
            "sweep", "--problem", "commit-adopt", "--retain-graph",
            "--namings", "identity", "--adversaries", "round-robin",
            "--out", str(out),
        ]) == 0
        rows = farm_result(out).rows
        assert [row.kind for row in rows] == ["run", "verify"]
        assert rows[-1].result["instance"] == "commit-adopt"


class TestSweepCli:
    def test_out_then_resume_round_trip(self, tmp_path, capsys):
        out = tmp_path / "farm"
        code = main([
            "sweep", "--problem", "figure-1-mutex",
            "--instance", "figure-1-mutex(m=3)",
            "--namings", "identity",
            "--adversaries", "random:1,random:2",
            "--max-steps", "2000",
            "--out", str(out),
        ])
        assert code == 0
        assert is_farm_dir(out)
        assert "2 done" in capsys.readouterr().out
        # resuming a completed farm is a clean no-op
        assert main(["sweep", "--resume", str(out)]) == 0
        assert "0 cell(s) to run" in capsys.readouterr().out

    def test_in_memory_one_shot(self, capsys):
        code = main([
            "sweep", "--problem", "figure-1-mutex",
            "--param", "m=3",
            "--namings", "identity",
            "--adversaries", "round-robin",
            "--max-steps", "2000",
        ])
        assert code == 0
        assert "1 done" in capsys.readouterr().out

    def test_a_raising_cell_is_an_error_row_in_both_modes(
        self, tmp_path, capsys
    ):
        # ladder-consensus assumes named registers, so its default grid
        # is the identity naming alone; it runs past its simulation
        # horizon in cell 2.
        seen = []
        for extra in ([], ["--out", str(tmp_path / "farm")]):
            assert main(["sweep", "--problem", "ladder-consensus", *extra]) == 1
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err
            seen.append((
                [line for line in captured.out.splitlines()
                 if line.startswith("ladder-consensus: ")],
                [line for line in captured.err.splitlines()
                 if line.startswith("[error] cell ")],
            ))
        assert seen[0] == seen[1]
        summary, errors = seen[0]
        assert summary == [
            "ladder-consensus: 3 cells — 2 done, 0 pending, 0 claimed, 1 error"
        ]
        assert [line.split(":")[0] for line in errors] == ["[error] cell 2"]
        assert errors[0].startswith(
            "[error] cell 2: ProtocolError: process 101 exceeded the "
            "simulation horizon"
        )

    @pytest.mark.parametrize("farm", [False, True], ids=["in-memory", "out"])
    @pytest.mark.parametrize("flag, spec, kind", [
        ("--namings", "random:x", "naming"),
        ("--adversaries", "burst:x", "adversary"),
        ("--adversaries", "staged:5:y", "adversary"),
    ])
    def test_a_malformed_spec_is_a_usage_error(
        self, flag, spec, kind, farm, tmp_path, capsys
    ):
        out = tmp_path / "farm"
        with pytest.raises(SystemExit) as excinfo:
            main([
                "sweep", "--problem", "figure-1-mutex", flag, spec,
                *(["--out", str(out)] if farm else []),
            ])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"error: bad {kind} spec {spec!r}; expected " in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""  # no cell ran
        assert not out.exists()

    def test_in_memory_drain_lets_a_farm_error_through(self):
        cells = [Cell(index=0, kind="bogus", payload={})]
        with SqliteRunTable.create(SqliteRunTable.MEMORY, cells) as table:
            with pytest.raises(FarmError, match="unknown cell kind 'bogus'"):
                drain_table(table, make_config(), "cli")

    def test_a_mutant_key_as_instance_runs_the_mutant(self, tmp_path, capsys):
        spellings = {
            "instance": ["--problem", "figure-1-mutex",
                         "--instance", "figure-1-mutex-even-m"],
            "key": ["--problem", "figure-1-mutex-even-m"],
        }
        rows = {}
        for name, argv in spellings.items():
            assert main(["sweep", *argv]) == 0
            assert "6 done" in capsys.readouterr().out
            out = tmp_path / name
            assert main(["sweep", *argv, "--out", str(out)]) == 0
            assert "6 done" in capsys.readouterr().out
            rows[name] = [row.result for row in farm_result(out).rows]
        assert rows["instance"] == rows["key"]

        def drained_rows(config):
            cells = grid_cells(config)
            with SqliteRunTable.create(SqliteRunTable.MEMORY, cells) as table:
                drain_table(table, config, "cli")
                return table.rows()

        rows = drained_rows(
            {**make_config(), "instance": "figure-1-mutex-even-m"}
        )
        key_rows = drained_rows({
            **make_config(), "problem": "figure-1-mutex-even-m",
            "instance": None,
        })
        assert [row.result for row in rows] == [row.result for row in key_rows]
        assert all(row.status == "done" for row in rows)

    def test_out_refuses_existing_farm(self, tmp_path, capsys):
        out = tmp_path / "farm"
        create_farm(out, make_config())
        with pytest.raises(SystemExit):
            main(["sweep", "--problem", "figure-1-mutex", "--out", str(out)])
        assert "use --resume" in capsys.readouterr().err

    def test_resume_refuses_non_farm_dir(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--resume", str(tmp_path)])
        assert "no run table" in capsys.readouterr().err

    def test_workers_require_out(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--problem", "figure-1-mutex", "--workers", "2"])
        assert "--out" in capsys.readouterr().err

    def test_report_on_farm_dir(self, tmp_path, capsys):
        out = tmp_path / "farm"
        create_farm(out, make_config(adversary_seeds=(1,)))
        drain_farm(out)
        assert main(["report", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "sweep farm" in captured
        assert "2 done" in captured
        assert "farm-cell" in captured

    def test_report_tolerates_truncated_manifest_tail(self, tmp_path, capsys):
        out = tmp_path / "farm"
        create_farm(out, make_config(adversary_seeds=(1,)))
        drain_farm(out, worker="w0")
        stream = out / "manifests-w0.ndjson"
        stream.write_text(stream.read_text()[:-40])  # torn final line
        assert main(["report", str(out)]) == 0
        captured = capsys.readouterr()
        assert "truncated final line" in captured.err
        assert "1 run(s)" in captured.out


#: The problems whose algorithms assume named registers
#: (``is_anonymous()`` false): their run cells refuse every naming but
#: the identity.
NAMED_REGISTER_PROBLEMS = [
    "commit-adopt", "ladder-consensus", "partitioned-k-set",
    "peterson-mutex", "election-chain-renaming", "splitter-renaming",
    "named-consensus",
]


class TestNamedRegisterGrids:
    def test_the_list_matches_the_registry(self):
        assert [
            spec.key for spec in problem_specs()
            if not spec.build(spec.instances[0].params_dict()).is_anonymous()
        ] == NAMED_REGISTER_PROBLEMS

    @pytest.mark.parametrize("problem", NAMED_REGISTER_PROBLEMS)
    def test_the_default_grid_is_the_identity_naming(
        self, problem, tmp_path, capsys
    ):
        out = tmp_path / "farm"
        code = main([
            "sweep", "--problem", problem, "--max-steps", "20000",
            "--out", str(out),
        ])
        err = capsys.readouterr().err
        rows = farm_result(out).rows
        assert [row.payload["naming"] for row in rows] == [
            {"type": "identity"}
        ] * 3
        # No cell refuses its naming.  ladder-consensus still runs past
        # its simulation horizon in cell 2 (pinned in TestSweepCli).
        horizon = [2] if problem == "ladder-consensus" else []
        assert [row.index for row in rows if row.status == "error"] == horizon
        assert "named registers" not in err
        assert code == (1 if horizon else 0)

    @pytest.mark.parametrize("farm", [False, True], ids=["in-memory", "out"])
    def test_an_explicit_random_naming_is_a_usage_error(
        self, farm, tmp_path, capsys
    ):
        from repro.errors import ConfigurationError
        from repro.memory.naming import RandomNaming
        from repro.problems import get_problem
        from repro.runtime.system import System

        spec = get_problem("peterson-mutex")
        params = spec.instances[0].params_dict()
        with pytest.raises(ConfigurationError) as refused:
            System(spec.build(params), spec.inputs(params),
                   naming=RandomNaming(1))
        out = tmp_path / "farm"
        with pytest.raises(SystemExit) as excinfo:
            main([
                "sweep", "--problem", "peterson-mutex",
                "--namings", "identity,random:1",
                *(["--out", str(out)] if farm else []),
            ])
        assert excinfo.value.code == 2
        assert f"error: {refused.value}" in capsys.readouterr().err
        assert not out.exists()
