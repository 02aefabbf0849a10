"""Schema round-trip and validation tests for run manifests."""

import json
import os
import subprocess

import pytest

from repro.errors import ManifestValidationError
from repro.obs import (
    MANIFEST_SCHEMA,
    RunManifest,
    Telemetry,
    host_fingerprint,
    load_manifests,
    validate_manifest,
    write_manifests_ndjson,
)
from repro.obs import manifest as manifest_module


def make_manifest(**overrides):
    tel = Telemetry(clock=lambda: 0.0)
    tel.count("scheduler.steps", 42)
    fields = dict(
        kind="exploration",
        algorithm="mutex m=3 (n=2)",
        parameters={"max_states": 500_000},
        naming="identity",
        adversary="exhaustive (all schedules)",
        backend="serial",
        workers=1,
        outcome={"verdict": "exhaustive-ok", "states": 771},
        telemetry=tel.snapshot(),
    )
    fields.update(overrides)
    return RunManifest.create(**fields)


class TestRoundTrip:
    def test_to_dict_from_dict_is_identity(self):
        manifest = make_manifest()
        clone = RunManifest.from_dict(manifest.to_dict())
        assert clone == manifest

    def test_create_fills_ambient_fields(self):
        manifest = make_manifest()
        assert manifest.schema == MANIFEST_SCHEMA
        assert set(manifest.host) == {"platform", "python", "cpus"}
        assert manifest.created_at.endswith("+00:00")
        # This test runs inside the repository checkout.
        assert manifest.git_rev is None or len(manifest.git_rev) == 40

    def test_write_and_load_single_file(self, tmp_path):
        manifest = make_manifest()
        path = manifest.write(tmp_path / "run.json")
        loaded = load_manifests(path)
        assert loaded == [manifest]

    def test_ndjson_round_trip_preserves_order(self, tmp_path):
        manifests = [make_manifest(kind=f"kind-{k}") for k in range(3)]
        path = write_manifests_ndjson(manifests, tmp_path / "runs.ndjson")
        assert load_manifests(path) == manifests

    def test_directory_load_collects_both_formats(self, tmp_path):
        make_manifest(algorithm="a").write(tmp_path / "a.json")
        write_manifests_ndjson(
            [make_manifest(algorithm="b"), make_manifest(algorithm="c")],
            tmp_path / "bc.ndjson",
        )
        loaded = load_manifests(tmp_path)
        assert [m.algorithm for m in loaded] == ["a", "b", "c"]

    def test_default_telemetry_block_is_the_null_snapshot(self):
        manifest = RunManifest.create(kind="x", algorithm="y")
        assert manifest.telemetry["counters"] == {}
        assert validate_manifest(manifest.to_dict()) == []

    def test_verdict_accessor(self):
        assert make_manifest().verdict() == "exhaustive-ok"
        assert make_manifest(outcome={}).verdict() == "?"


class TestValidation:
    def test_valid_document_has_no_problems(self):
        assert validate_manifest(make_manifest().to_dict()) == []

    def test_non_object_is_rejected(self):
        assert validate_manifest([1, 2]) != []

    def test_missing_required_field(self):
        document = make_manifest().to_dict()
        del document["outcome"]
        problems = validate_manifest(document)
        assert any("outcome" in p and "missing" in p for p in problems)

    def test_wrong_type_is_named(self):
        document = make_manifest().to_dict()
        document["workers"] = "four"
        problems = validate_manifest(document)
        assert any("workers" in p and "int" in p for p in problems)

    def test_bool_does_not_pass_as_int(self):
        document = make_manifest().to_dict()
        document["workers"] = True
        assert any("bool" in p for p in validate_manifest(document))

    def test_unknown_schema_version_is_rejected(self):
        document = make_manifest().to_dict()
        document["schema"] = "repro.run_manifest/v99"
        assert any("unsupported schema" in p for p in validate_manifest(document))

    def test_unknown_fields_are_rejected(self):
        document = make_manifest().to_dict()
        document["surprise"] = 1
        assert any("unknown fields" in p for p in validate_manifest(document))

    def test_structural_telemetry_check(self):
        document = make_manifest().to_dict()
        del document["telemetry"]["phases"]
        document["telemetry"]["events"] = {}
        problems = validate_manifest(document)
        assert any("telemetry block missing 'phases'" in p for p in problems)
        assert any("telemetry.events must be list" in p for p in problems)

    def test_all_problems_reported_at_once(self):
        document = make_manifest().to_dict()
        del document["kind"]
        document["workers"] = "four"
        document["extra"] = 0
        assert len(validate_manifest(document)) == 3

    def test_from_dict_raises_listing_problems(self):
        document = make_manifest().to_dict()
        del document["kind"]
        with pytest.raises(ManifestValidationError, match="kind"):
            RunManifest.from_dict(document)

    def test_to_dict_validates_the_constructed_manifest(self):
        manifest = make_manifest()
        manifest.workers = "four"
        with pytest.raises(ManifestValidationError, match="workers"):
            manifest.to_dict()


class TestLoadErrors:
    def test_invalid_file_is_named_in_the_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": MANIFEST_SCHEMA}))
        with pytest.raises(ManifestValidationError, match="bad.json"):
            load_manifests(bad)

    def test_ndjson_errors_name_the_line(self, tmp_path):
        good = make_manifest()
        bad = tmp_path / "runs.ndjson"
        bad.write_text(
            json.dumps(good.to_dict()) + "\n" + json.dumps({"kind": "?"}) + "\n"
        )
        with pytest.raises(ManifestValidationError, match="line 2"):
            load_manifests(bad)

    def test_empty_directory_is_an_error(self, tmp_path):
        with pytest.raises(ManifestValidationError, match="no .json"):
            load_manifests(tmp_path)

    def test_non_manifest_neighbour_json_is_rejected_loudly(self, tmp_path):
        (tmp_path / "BENCH_explore.json").write_text(json.dumps({"schema": "x"}))
        with pytest.raises(ManifestValidationError, match="BENCH_explore.json"):
            load_manifests(tmp_path)


class TestHostFingerprint:
    def test_fingerprint_fields(self):
        fingerprint = host_fingerprint()
        assert isinstance(fingerprint["platform"], str)
        assert isinstance(fingerprint["python"], str)
        assert fingerprint["cpus"] is None or fingerprint["cpus"] >= 1


class TestGitRevision:
    @pytest.fixture
    def fake_git(self, monkeypatch):
        """Count ``git`` subprocesses; each answers one fixed revision."""
        calls = []

        def run(argv, **kwargs):
            calls.append((argv, kwargs.get("cwd")))
            return subprocess.CompletedProcess(argv, 0, stdout="f" * 40 + "\n")

        manifest_module._git_revision_at.cache_clear()
        monkeypatch.setattr(manifest_module.subprocess, "run", run)
        yield calls
        manifest_module._git_revision_at.cache_clear()

    def test_two_manifests_start_one_subprocess(self, fake_git):
        first, second = make_manifest(), make_manifest()
        assert len(fake_git) == 1
        assert first.git_rev == second.git_rev == "f" * 40

    def test_each_directory_is_looked_up_once(self, fake_git, tmp_path):
        for _ in range(2):
            manifest_module.current_git_revision(tmp_path)
            manifest_module.current_git_revision()
        assert [cwd for _, cwd in fake_git] == [str(tmp_path), os.getcwd()]


class TestTruncatedTail:
    """A worker killed mid-append leaves a torn final NDJSON line."""

    def torn_stream(self, tmp_path, cut=25):
        manifests = [make_manifest(naming=f"n{k}") for k in range(3)]
        path = write_manifests_ndjson(manifests, tmp_path / "runs.ndjson")
        text = path.read_text()
        path.write_text(text[:-cut])
        return manifests, path

    def test_default_load_still_raises(self, tmp_path):
        _, path = self.torn_stream(tmp_path)
        with pytest.raises(json.JSONDecodeError):
            load_manifests(path)

    def test_tolerant_load_drops_only_the_final_line(self, tmp_path):
        from repro.obs import TruncatedManifestWarning

        manifests, path = self.torn_stream(tmp_path)
        with pytest.warns(TruncatedManifestWarning, match="truncated final line"):
            loaded = load_manifests(path, tolerate_truncated_tail=True)
        assert loaded == manifests[:-1]

    def test_tolerant_load_of_intact_stream_warns_nothing(self, tmp_path):
        import warnings as _warnings

        manifests = [make_manifest()]
        path = write_manifests_ndjson(manifests, tmp_path / "runs.ndjson")
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert load_manifests(path, tolerate_truncated_tail=True) == manifests

    def test_torn_middle_line_still_raises(self, tmp_path):
        manifests = [make_manifest(naming=f"n{k}") for k in range(3)]
        path = write_manifests_ndjson(manifests, tmp_path / "runs.ndjson")
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:40]  # corruption, not a crash tail
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(json.JSONDecodeError):
            load_manifests(path, tolerate_truncated_tail=True)
