"""Smoke tests for the standalone experiment harness
(``benchmarks/run_experiments.py``): every experiment function must run
and assert its claims.  The heavyweight ones are exercised at reduced
scale by the benchmark suite; here we run the fast ones end to end and
check the registry wiring.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "run_experiments.py"


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("run_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestHarness:
    def test_registry_covers_e1_through_e14(self, harness):
        names = [name for name, _ in harness.EXPERIMENTS]
        joined = " ".join(names)
        for k in range(1, 15):
            assert f"E{k}" in joined, f"E{k} missing from the registry"

    def test_e5_election_runs(self, harness, capsys):
        harness.e5_election()
        out = capsys.readouterr().out
        assert "E5" in out and "unanimous winner" in out

    def test_e13_plasticity_runs(self, harness, capsys):
        harness.e13_plasticity()
        out = capsys.readouterr().out
        assert "plasticity" in out

    def test_e9_impossibility_runs(self, harness, capsys):
        harness.e9_e10_e11_impossibility()
        out = capsys.readouterr().out
        assert "rho-violation" in out and "z-no-progress" in out

    def test_main_with_selection(self, harness, capsys):
        harness.main(["E5"])
        out = capsys.readouterr().out
        assert "E5" in out and "reproduced" in out


class TestExplorationBench:
    def test_full_instance_list_covers_the_recorded_trajectory(self, harness):
        full = [label for label, *_ in harness._bench_instances(quick=False)]
        quick = [label for label, *_ in harness._bench_instances(quick=True)]
        assert len(full) >= 6
        assert set(quick) <= set(full)
        assert any("m=7" in label for label in full)
        assert any("consensus n=3" in label for label in full)

    def test_check_baseline_flags_regressions(self, harness, tmp_path):
        def doc(states, verdict="exhaustive-ok"):
            return {
                "instances": [
                    {
                        "instance": "mutex m=3 (n=2)",
                        "seed": {"verdict": "exhaustive-ok", "states": 1747},
                        "canonical": {"verdict": verdict, "states": states},
                    }
                ]
            }

        baseline = tmp_path / "baseline.json"
        import json

        baseline.write_text(json.dumps(doc(771)))
        assert harness.check_baseline(doc(771), baseline) == []
        assert harness.check_baseline(doc(770), baseline) == []
        problems = harness.check_baseline(doc(900), baseline)
        assert problems and "regressed" in problems[0]
        problems = harness.check_baseline(doc(771, verdict="bounded-ok"), baseline)
        assert problems and "verdict changed" in problems[0]

    def test_quick_bench_writes_schema_v8(self, harness, tmp_path, capsys):
        out = tmp_path / "bench.json"
        import json

        code = harness.main([
            "--bench", "--quick", "--bench-out", str(out),
            "--kernel", "compiled",
        ])
        capsys.readouterr()
        assert code == 0
        document = json.loads(out.read_text())
        assert document["schema"] == "repro.bench_explore/v8"
        # v8: degraded_host is stamped at the top level so speedup
        # gates can decide skip-vs-fail without reading every record.
        assert document["degraded_host"] == (document["host_cpus"] == 1)
        # v6: the sweep-farm micro-benchmark block
        sweep_block = document["sweep"]
        assert sweep_block["grid_cells"] > 0
        assert sweep_block["cells_per_second"] is None or (
            sweep_block["cells_per_second"] > 0
        )
        assert sweep_block["resume_overhead_seconds"] >= 0.0
        # The farm writes no graph files, so there is no footprint to
        # record (the committed v7 file still carries one).
        assert "retained_edge_bytes" not in sweep_block
        # v7: the seeded-fuzzer micro-benchmark block — the mutant row
        # must carry certified violations, the clean row none.
        fuzz_block = document["fuzz"]
        assert fuzz_block["seed"] == document["rng_seed"]
        assert fuzz_block["families"] == [
            "lockstep", "random", "greedy", "covering",
        ]
        mutant = fuzz_block["instances"]["figure-1-mutex-even-m(m=4)"]
        clean = fuzz_block["instances"]["figure-1-mutex(m=3)"]
        assert mutant["violations"] > 0
        assert sum(mutant["violations_by_family"].values()) == (
            mutant["violations"]
        )
        assert clean["violations"] == 0
        for row in (mutant, clean):
            assert row["episodes"] == fuzz_block["episodes"]
            assert row["steps"] > 0
            assert row["distinct_states"] > 0
        assert document["rng_seed"] == 5
        assert document["backend"] == "serial"
        assert document["kernel"] == "compiled"
        assert document["workers"] == 1
        assert document["host_cpus"] >= 1
        assert document["telemetry"] == {
            "enabled": False, "dir": None, "manifests": [],
        }
        for record in document["instances"]:
            assert record["seed"]["verdict"] == record["canonical"]["verdict"]
            assert (
                record["canonical"]["states"] <= record["seed"]["states"]
            )
            # v5: the compiled block repeats both walks on the
            # table-compiled kernel; state counts are asserted equal by
            # the harness before anything is recorded.
            block = record["compiled"]
            assert block["kernel"] == "compiled"
            assert block["states"] == record["seed"]["states"]
            assert block["verdict"] == record["seed"]["verdict"]
            speedup = block["speedup_vs_interpreted"]
            assert speedup is None or speedup > 0
            nested = block["canonical"]
            assert nested["states"] == record["canonical"]["states"]
            assert nested["kernel"] == "compiled"
        # v4 adds a graph-retention/verification block to every instance
        # whose registry entry declares liveness properties.
        verified = [r for r in document["instances"] if "verify" in r]
        assert verified, "no quick instance carries the v4 verify block"
        for record in verified:
            block = record["verify"]
            assert block["ok"] is True
            assert block["retained_edges"] > 0
            assert block["verify_wall_seconds"] >= 0.0
            assert block["explore_wall_seconds"] > 0.0
            assert block["properties"]

    def test_telemetry_flag_writes_schema_valid_manifests(
        self, harness, tmp_path, capsys
    ):
        from repro.obs import load_manifests

        out = tmp_path / "bench.json"
        telemetry_dir = tmp_path / "telemetry"
        import json

        code = harness.main([
            "--bench", "--quick", "--bench-out", str(out),
            "--telemetry", str(telemetry_dir),
        ])
        capsys.readouterr()
        assert code == 0
        document = json.loads(out.read_text())
        block = document["telemetry"]
        assert block["enabled"] and block["dir"] == str(telemetry_dir)
        # One seed + one canonical manifest per quick instance.
        assert len(block["manifests"]) == 2 * len(document["instances"])
        manifests = load_manifests(telemetry_dir)
        assert len(manifests) == len(block["manifests"])
        assert {m.kind for m in manifests} == {"exploration"}
        for record in document["instances"]:
            for engine in ("seed", "canonical"):
                matches = [
                    m for m in manifests
                    if m.algorithm == record["instance"]
                    and m.parameters["engine"] == engine
                ]
                assert len(matches) == 1
                assert matches[0].verdict() == record[engine]["verdict"]
                assert matches[0].outcome["states"] == record[engine]["states"]
                assert (
                    matches[0].telemetry["gauges"]["explore.states"]
                    == record[engine]["states"]
                )
