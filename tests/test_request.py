"""RunRequest: validation, registry resolution, and the entry points
that take execution choices only through ``request=``."""

import dataclasses
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
        assert all(
            getattr(request, field.name) is None
            for field in dataclasses.fields(request)
        )
        assert request.params_dict() is None

    def test_kernel_is_the_only_engine_selector(self):
        with pytest.raises(TypeError, match="backend"):
            RunRequest(backend="serial")

    def test_unknown_kernel(self):
        with pytest.raises(ConfigurationError) as err:
            RunRequest(kernel="jit")
        assert str(err.value) == (
            "unknown kernel 'jit'; expected 'interpreted' or 'compiled'"
        )

    @pytest.mark.parametrize("field", ["max_steps", "max_states"])
    def test_positive_int_budgets(self, field):
        with pytest.raises(ConfigurationError):
            RunRequest(**{field: 0})
        with pytest.raises(ConfigurationError):
            RunRequest(**{field: "many"})

    def test_the_worker_count_is_not_a_field(self):
        # run_farm(workers=) and --workers spell it; nothing read the field.
        with pytest.raises(TypeError, match="workers"):
            RunRequest(workers=4)

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
            request.replace(kernel="jit")


# -- keyword merging ---------------------------------------------------

class TestMerged:
    def test_request_field_wins_over_default(self):
        request = RunRequest(max_states=100)
        assert request.merged("max_states", None) == 100

    def test_explicit_keyword_passes_through_when_unset(self):
        assert RunRequest().merged("max_states", 42) == 42

    def test_matching_explicit_is_fine(self):
        request = RunRequest(kernel="compiled")
        assert request.merged("kernel", "compiled") == "compiled"

    def test_conflicting_explicit_raises(self):
        with pytest.raises(ConfigurationError) as err:
            RunRequest(kernel="compiled").merged("kernel", "interpreted")
        assert str(err.value) == (
            "request= already carries kernel='compiled'; drop the "
            "conflicting kernel='interpreted' keyword"
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

    def test_unknown_problem_is_a_configuration_error(self):
        with pytest.raises(KeyError) as missing:
            get_problem("nope")
        with pytest.raises(ConfigurationError) as err:
            resolve_target("nope")
        assert str(err.value) == missing.value.args[0]
        assert str(err.value).startswith("unknown problem 'nope'; known: [")

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
        with pytest.raises(TypeError, match="workers"):
            request.replace(workers=8)
        assert verify_instance(request=request).ok

    def test_explore_runs_in_one_process(self):
        spec = get_problem("figure-1-mutex")
        system = spec.system(spec.instance("figure-1-mutex(m=3)"))
        with pytest.raises(TypeError, match="workers"):
            RunRequest(workers=1)
        result = explore(system, spec.invariant, request=RunRequest())
        assert result.ok and result.complete and result.backend == "serial"

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


# -- fields an entry point does not read -------------------------------

MUTEX = "figure-1-mutex"
MUTEX_M3 = "figure-1-mutex(m=3)"


def call_entry(entry, request):
    """Run ``entry`` (an entry point, with the positional target form
    its label names) on ``request``."""
    from repro.memory.naming import IdentityNaming
    from repro.runtime.adversary import RandomAdversary

    spec = get_problem(MUTEX)
    inst = spec.instance(MUTEX_M3)
    if entry == "explore":
        return explore(spec.system(inst), spec.invariant, request=request)
    if entry == "verify_instance":
        return verify_instance(
            request=request.replace(problem=MUTEX, instance=MUTEX_M3)
        )
    if entry == "verify_instance(spec)":
        return verify_instance(spec, request=request)
    if entry == "verify_instance(spec, instance)":
        return verify_instance(spec, inst, request=request)
    assert entry == "sweep_problem"
    return sweep_problem(
        MUTEX,
        namings=[IdentityNaming()],
        adversaries=[RandomAdversary(1)],
        checkers_factory=lambda: [],
        request=request,
    )


class TestUnreadFieldsAreRefused:
    """Each ``request=`` entry point raises a ConfigurationError naming
    a set field it does not read, instead of running without it."""

    @pytest.mark.parametrize("entry, field, value", [
        ("explore", "problem", MUTEX),
        ("explore", "instance", MUTEX_M3),
        ("explore", "params", {"m": 3}),
        ("explore", "seed", 3),
        ("explore", "max_steps", 5),
        ("verify_instance", "seed", 3),
        ("verify_instance", "max_steps", 5),
        ("verify_instance(spec)", "problem", MUTEX),
        ("verify_instance(spec, instance)", "instance", MUTEX_M3),
        ("verify_instance(spec, instance)", "params", {"m": 3}),
        ("sweep_problem", "problem", MUTEX),
        ("sweep_problem", "kernel", "compiled"),
        ("sweep_problem", "max_states", 50),
        ("sweep_problem", "seed", 3),
    ])
    def test_refusal_table(self, entry, field, value):
        with pytest.raises(ConfigurationError) as err:
            call_entry(entry, RunRequest(**{field: value}))
        name = entry.split("(")[0]
        assert str(err.value) == (
            f"{name}() does not read RunRequest field(s) {field}; "
            "leave them unset"
        )

    def test_every_unread_field_is_named(self):
        spec = get_problem("naive-lock")
        system = spec.system(spec.instances[0])
        request = RunRequest(
            seed=3, max_steps=5, problem="naive-lock", instance="x"
        )
        with pytest.raises(ConfigurationError) as err:
            explore(system, spec.invariant, request=request)
        assert str(err.value) == (
            "explore() does not read RunRequest field(s) problem, "
            "instance, max_steps, seed; leave them unset"
        )

    @pytest.mark.parametrize("entry, fields", [
        ("explore", {"kernel": "compiled", "max_states": 50_000}),
        ("verify_instance", {"kernel": "compiled", "max_states": 50_000}),
        ("verify_instance(spec)", {"instance": MUTEX_M3}),
        ("sweep_problem", {"instance": MUTEX_M3, "max_steps": 500}),
    ])
    def test_read_fields_are_accepted(self, entry, fields):
        assert call_entry(entry, RunRequest(**fields)) is not None

    def test_sweep_problem_takes_a_mutant_key_as_instance(self):
        from repro.memory.naming import IdentityNaming
        from repro.runtime.adversary import RoundRobinAdversary

        def run(**target):
            return sweep_problem(
                adversaries=[RoundRobinAdversary()],
                namings=[IdentityNaming()],
                checkers_factory=lambda: [],
                request=RunRequest(max_steps=200),
                **target,
            )

        by_instance = run(problem=MUTEX, instance="figure-1-mutex-even-m")
        by_key = run(problem="figure-1-mutex-even-m")
        assert by_instance.algorithm == by_key.algorithm
        assert [len(r.trace) for r in by_instance.records] == [
            len(r.trace) for r in by_key.records
        ]
