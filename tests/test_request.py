"""RunRequest: validation, registry resolution, and the entry points
that take execution choices only through ``request=``."""

import warnings

import pytest

from repro.analysis.experiments import sweep_problem
from repro.errors import ConfigurationError
from repro.problems import get_problem
from repro.request import RunRequest, resolve_target
from repro.runtime.exploration import explore
from repro.verify.runner import verify_instance


# -- construction-time validation --------------------------------------

class TestRunRequestValidation:
    def test_defaults_pin_nothing(self):
        request = RunRequest()
        assert request.kernel is None
        assert request.backend is None
        assert request.params_dict() is None

    def test_unknown_kernel(self):
        with pytest.raises(ConfigurationError) as err:
            RunRequest(kernel="jit")
        assert str(err.value) == (
            "unknown kernel 'jit'; expected 'interpreted' or 'compiled'"
        )

    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError) as err:
            RunRequest(backend="cluster")
        assert str(err.value) == (
            "unknown backend 'cluster'; "
            "expected 'serial' or 'process'"
        )

    def test_parallel_backend_is_unknown(self):
        with pytest.raises(ConfigurationError) as err:
            RunRequest(backend="parallel")
        assert str(err.value) == (
            "unknown backend 'parallel'; expected 'serial' or 'process'"
        )

    def test_compiled_kernel_rejects_process_backend(self):
        with pytest.raises(ConfigurationError) as err:
            RunRequest(kernel="compiled", backend="process")
        assert str(err.value) == (
            "kernel='compiled' is a drop-in replacement for the serial "
            "backend; got backend 'process'"
        )

    def test_compiled_kernel_accepts_serial_backend(self):
        request = RunRequest(kernel="compiled", backend="serial")
        assert request.kernel == "compiled"

    @pytest.mark.parametrize("field", ["workers", "max_steps", "max_states"])
    def test_positive_int_budgets(self, field):
        with pytest.raises(ConfigurationError):
            RunRequest(**{field: 0})
        with pytest.raises(ConfigurationError):
            RunRequest(**{field: "many"})

    def test_seed_must_be_int(self):
        with pytest.raises(ConfigurationError):
            RunRequest(seed="7")

    def test_params_mapping_normalised_hashable(self):
        request = RunRequest(params={"n": 3, "m": 5})
        assert request.params == (("m", 5), ("n", 3))
        assert hash(request) == hash(RunRequest(params={"m": 5, "n": 3}))
        assert request.params_dict() == {"m": 5, "n": 3}

    def test_replace_revalidates(self):
        request = RunRequest(kernel="compiled")
        with pytest.raises(ConfigurationError):
            request.replace(backend="process")


# -- keyword merging ---------------------------------------------------

class TestMerged:
    def test_request_field_wins_over_default(self):
        request = RunRequest(max_states=100)
        assert request.merged("max_states", None) == 100

    def test_explicit_keyword_passes_through_when_unset(self):
        assert RunRequest().merged("max_states", 42) == 42

    def test_matching_explicit_is_fine(self):
        assert RunRequest(workers=4).merged("workers", 4) == 4

    def test_conflicting_explicit_raises(self):
        with pytest.raises(ConfigurationError) as err:
            RunRequest(workers=4).merged("workers", 2)
        assert str(err.value) == (
            "request= already carries workers=4; drop the conflicting "
            "workers=2 keyword"
        )

    def test_entry_point_default_never_conflicts(self):
        # 500_000 is explore()'s own default — not a user choice.
        request = RunRequest(max_states=100)
        assert request.merged("max_states", 500_000, default=500_000) == 100


# -- registry resolution -----------------------------------------------

class TestResolveTarget:
    def test_requires_problem(self):
        with pytest.raises(ConfigurationError) as err:
            resolve_target(None)
        assert "a problem key is required" in str(err.value)

    def test_instance_label(self):
        spec, inst = resolve_target("figure-1-mutex", "figure-1-mutex(m=3)")
        assert spec.key == "figure-1-mutex"
        assert inst.label == "figure-1-mutex(m=3)"

    def test_instance_as_mutant_problem_key(self):
        spec, inst = resolve_target("figure-1-mutex", "figure-1-mutex-even-m")
        assert spec.key == "figure-1-mutex-even-m"
        assert inst.label == "figure-1-mutex-even-m(m=4)"

    def test_unknown_instance_names_known_labels(self):
        with pytest.raises(ConfigurationError) as err:
            resolve_target("figure-1-mutex", "nope")
        assert "figure-1-mutex(m=3)" in str(err.value)

    def test_params_synthesise_adhoc_instance(self):
        spec, inst = resolve_target("figure-1-mutex", params={"m": 7})
        assert inst.label == "figure-1-mutex(m=7)"
        assert inst.params_dict() == {"m": 7}

    def test_default_first_instance(self):
        spec, inst = resolve_target("figure-1-mutex")
        assert inst.label == spec.instances[0].label


# -- request-only entry points -----------------------------------------

class TestRequestOnlyEntryPoints:
    @pytest.mark.parametrize(
        "keyword, value",
        [
            ("backend", "serial"),
            ("telemetry", None),
            ("max_states", 50_000),
            ("kernel", "compiled"),
        ],
    )
    def test_verify_instance_rejects_removed_keywords(self, keyword, value):
        spec = get_problem("figure-1-mutex")
        inst = spec.instance("figure-1-mutex(m=3)")
        with pytest.raises(TypeError, match=keyword):
            verify_instance(spec, inst, **{keyword: value})

    def test_verify_instance_rejects_positional_execution_choices(self):
        spec = get_problem("figure-1-mutex")
        inst = spec.instance("figure-1-mutex(m=3)")
        with pytest.raises(TypeError):
            verify_instance(spec, inst, "serial")

    def test_verify_instance_request_path_does_not_warn(self):
        spec = get_problem("figure-1-mutex")
        inst = spec.instance("figure-1-mutex(m=3)")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = verify_instance(
                spec, inst, request=RunRequest(max_states=50_000)
            )
        assert report.ok

    def test_verify_instance_resolves_from_request_alone(self):
        report = verify_instance(
            request=RunRequest(
                problem="figure-1-mutex", instance="figure-1-mutex(m=3)"
            )
        )
        assert report.ok

    def test_verify_instance_runs_in_one_process(self):
        request = RunRequest(
            problem="figure-1-mutex", instance="figure-1-mutex(m=3)"
        )
        with pytest.raises(ConfigurationError, match="one process"):
            verify_instance(request=request.replace(workers=8))
        assert verify_instance(request=request.replace(workers=1)).ok

    def test_explore_runs_in_one_process(self):
        spec = get_problem("figure-1-mutex")
        system = spec.system(spec.instance("figure-1-mutex(m=3)"))
        with pytest.raises(ConfigurationError, match="one process"):
            explore(system, spec.invariant, request=RunRequest(workers=8))
        result = explore(system, spec.invariant, request=RunRequest(workers=1))
        assert result.ok and result.complete and result.workers == 1

    def test_verify_instance_without_target_raises(self):
        with pytest.raises(ConfigurationError):
            verify_instance(request=RunRequest(max_states=10))

    @pytest.mark.parametrize(
        "keyword, value",
        [("max_steps", 500), ("backend", "serial"), ("telemetry", None)],
    )
    def test_sweep_problem_rejects_removed_keywords(self, keyword, value):
        from repro.memory.naming import IdentityNaming
        from repro.runtime.adversary import RandomAdversary

        with pytest.raises(TypeError, match=keyword):
            sweep_problem(
                "figure-1-mutex",
                namings=[IdentityNaming()],
                adversaries=[RandomAdversary(1)],
                checkers_factory=lambda: [],
                **{keyword: value},
            )

    def test_sweep_problem_rejects_positional_execution_choices(self):
        with pytest.raises(TypeError):
            sweep_problem("figure-1-mutex", [], [], lambda: [], None, None, 500)

    def test_sweep_problem_request_path_does_not_warn(self):
        from repro.memory.naming import IdentityNaming
        from repro.runtime.adversary import RandomAdversary

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = sweep_problem(
                "figure-1-mutex",
                namings=[IdentityNaming()],
                adversaries=[RandomAdversary(1)],
                checkers_factory=lambda: [],
                request=RunRequest(max_steps=500),
            )
        assert result.runs == 1
