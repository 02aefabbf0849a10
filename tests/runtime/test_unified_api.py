"""The unified exploration/sweep API surface.

One public spelling — ``explore(..., reduction=..., kernel=...)`` and an
in-process ``sweep(...)``.  The old deprecation shims
(``explore_symmetry_reduced``, ``sweep(executor=...)``) and the sweep's
``backend=`` executor choice are gone; these tests pin the unified
surface they migrated to.
"""

import warnings

import pytest

import repro
from repro.analysis.experiments import sweep
from repro.core.mutex import AnonymousMutex
from repro.errors import ConfigurationError
from repro.memory.naming import IdentityNaming, RandomNaming
from repro.obs import load_manifests
from repro.runtime.adversary import RandomAdversary
from repro.runtime.canonical import TrivialCanonicalizer
from repro.runtime.exploration import explore, mutual_exclusion_invariant
from repro.runtime.system import System
from repro.spec.mutex_spec import MutualExclusionChecker

from tests.conftest import pids


def mutex_system():
    return System(AnonymousMutex(m=3, cs_visits=1), pids(2), record_trace=False)


def mutex_sweep(**kwargs):
    return sweep(
        lambda: AnonymousMutex(m=3, cs_visits=1),
        pids(2),
        namings=[IdentityNaming()],
        adversaries=[RandomAdversary(seed) for seed in range(2)],
        checkers_factory=lambda: [MutualExclusionChecker()],
        max_steps=20_000,
        **kwargs,
    )


class TestUnifiedExplore:
    def test_reduction_defaults_to_none(self):
        result = explore(mutex_system(), mutual_exclusion_invariant)
        assert result.group_size == 1
        assert result.orbits_collapsed == 0

    def test_reduction_none_equals_default(self):
        default = explore(mutex_system(), mutual_exclusion_invariant)
        spelled = explore(
            mutex_system(), mutual_exclusion_invariant, reduction="none"
        )
        assert spelled.states_explored == default.states_explored

    def test_reduction_symmetry_engages_the_group(self):
        result = explore(
            mutex_system(), mutual_exclusion_invariant, reduction="symmetry"
        )
        assert result.group_size >= 2
        assert result.orbits_collapsed > 0

    def test_reduction_symmetry_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            explore(
                mutex_system(), mutual_exclusion_invariant, reduction="symmetry"
            )

    def test_reduction_and_canonicalizer_conflict(self):
        system = mutex_system()
        with pytest.raises(ConfigurationError, match="not both"):
            explore(
                system,
                mutual_exclusion_invariant,
                reduction="symmetry",
                canonicalizer=TrivialCanonicalizer(system.scheduler),
            )

    def test_unknown_reduction_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown reduction"):
            explore(
                mutex_system(), mutual_exclusion_invariant, reduction="magic"
            )

    def test_deprecated_spelling_is_gone(self):
        import repro.runtime.exploration as exploration

        assert not hasattr(exploration, "explore_symmetry_reduced")

    def test_package_root_exports_the_unified_surface(self):
        assert repro.explore is explore
        assert repro.sweep is sweep
        for name in ("Telemetry", "NullTelemetry", "RunManifest", "sweep"):
            assert name in repro.__all__


class TestUnifiedSweep:
    def test_cells_run_naming_major(self):
        result = sweep(
            lambda: AnonymousMutex(m=3, cs_visits=1),
            pids(2),
            namings=[IdentityNaming(), RandomNaming(1)],
            adversaries=[RandomAdversary(seed) for seed in range(2)],
            checkers_factory=lambda: [MutualExclusionChecker()],
            max_steps=20_000,
        )
        assert result.runs == 4 and result.all_ok
        assert [(r.naming, r.adversary) for r in result.records] == [
            (naming.describe(), adversary.describe())
            for naming in (IdentityNaming(), RandomNaming(1))
            for adversary in (RandomAdversary(0), RandomAdversary(1))
        ]

    def test_default_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            mutex_sweep()

    @pytest.mark.parametrize("keyword", ["backend", "executor"])
    def test_executor_keywords_are_gone(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            mutex_sweep(**{keyword: "serial"})

    def test_manifest_dir_writes_one_manifest_per_cell(self, tmp_path):
        result = mutex_sweep(manifest_dir=tmp_path)
        manifests = load_manifests(tmp_path)
        assert len(manifests) == result.runs
        assert {m.kind for m in manifests} == {"sweep-cell"}
        assert all(m.verdict() == "ok" for m in manifests)

    def test_repeated_manifest_dirs_do_not_overwrite(self, tmp_path):
        mutex_sweep(manifest_dir=tmp_path)
        mutex_sweep(manifest_dir=tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert len(names) == 2 and names[0] != names[1]
