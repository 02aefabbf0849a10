"""The benchmark's own tests: spans, checks, metric names, replay."""

import json
import os
import re

import pytest

import child
import layers
import run
import workloads
from spans import Spans, self_times

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_self_time_subtracts_the_union_of_child_intervals():
    records = [
        ["op", 0.0, 10.0, None, "op"],
        ["walk", 1.0, 4.0, 0, "op"],
        ["compile", 1.5, 2.0, 1, "op"],
        # Overlapping children count once; a child past the end is clipped.
        ["a", 5.0, 7.0, 0, "op"],
        ["b", 6.0, 8.0, 0, "op"],
        ["c", 9.0, 11.0, 0, "op"],
    ]
    assert self_times(records) == pytest.approx([3.0, 2.5, 0.5, 2.0, 2.0, 2.0])


def test_spans_nest_and_total_by_name():
    spans = Spans(op="x")
    with spans.span("outer"):
        with spans.span("inner"):
            pass
        with spans.span("inner"):
            pass
    totals = spans.totals()
    assert totals["inner"][0] == 2
    assert spans.records[1][3] == 0 and spans.records[2][3] == 0
    outer_count, outer_total, outer_self = totals["outer"]
    assert outer_self == pytest.approx(outer_total - totals["inner"][1])


def test_times_are_scaled_to_the_nominal_host_speed():
    nominal = run.NOMINAL_SPEED_S
    # Twice as slow a host makes the op take twice as long: same value.
    assert run.scaled_median([(2.0, 2 * nominal)]) == pytest.approx(1.0)
    assert run.scaled_median(
        [(1.0, nominal), (4.0, 2 * nominal), (9.0, nominal)]
    ) == pytest.approx(2.0)


def test_one_wrong_expected_value_fails_every_op(tmp_path, monkeypatch):
    expected = workloads.load_expected()
    expected["explore-m9-none"]["states_explored"] += 1
    monkeypatch.setattr(run, "TMP_ROOT", str(tmp_path))
    runner = run.Runner("explore-m9-none", 7, expected)
    for _ in range(2):
        runner.op()
    failed = sum(not op["ok"] for op in runner.ops)
    assert failed / len(runner.ops) == 1.0
    assert all("states_explored" in op["problems"][0] for op in runner.ops)


def test_benchmark_json_lists_exactly_these_workloads_and_metrics():
    spec = run.benchmark_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(child.WORKLOADS)
    assert list(workloads.CHECKS) == list(child.WORKLOADS)
    assert sorted(workloads.load_expected()) == sorted(child.WORKLOADS)
    assert tuple(m["name"] for m in spec["end_to_end"]) == run.END_TO_END
    assert tuple(m["name"] for m in spec["per_layer"]) == layers.LAYER_METRICS
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    setup = spec["end_to_end"][0]
    assert (setup["name"], setup["unit"], setup["better"]) == ("setup_s", "s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_names_and_units_are_well_formed():
    spec = run.benchmark_spec()
    entries = spec["workloads"] + spec["end_to_end"] + spec["per_layer"]
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names
    assert all(
        UNIT.match(entry["unit"]) for entry in spec["end_to_end"] + spec["per_layer"]
    )
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    assert os.path.getsize(path) <= 64 * 1024
    json.dumps(spec)


@pytest.mark.parametrize(
    "problem, label, reduction",
    [
        ("figure-1-mutex", "figure-1-mutex(m=5)", "none"),
        ("figure-1-mutex", "figure-1-mutex(m=7)", "symmetry"),
        ("figure-1-mutex-even-m", "figure-1-mutex-even-m(m=4)", "none"),
        ("figure-2-consensus", "figure-2-consensus(n=2)", "symmetry"),
        ("figure-3-renaming", "figure-3-renaming(n=2)", "symmetry"),
    ],
)
def test_replay_reaches_exactly_the_walks_states(problem, label, reduction):
    import repro
    from repro.problems import get_problem

    spec = get_problem(problem)
    spans = Spans()
    trace = layers.Trace()
    hooks = layers.Hooks(spans)
    layers.install(hooks, trace, "explore")
    try:
        result = repro.explore(
            spec.system(spec.instance(label)), spec.invariant,
            reduction=reduction, kernel="compiled",
        )
    finally:
        hooks.restore()
    assert result.complete and result.kernel == "compiled"
    ((task, states, events),) = trace.walks
    assert states == result.states_explored
    metrics = dict.fromkeys(layers.LAYER_METRICS, 0)
    problems = []
    layers.replay_walks(spans, trace, metrics, problems)
    assert problems == []
    if reduction == "none":
        # Inert steps cost the serial walk two events each.
        assert metrics["expand.edges"] + metrics["expand.inert_edges"] == events
    else:
        assert metrics["digest.candidates"] > 0


def test_lasso_check_accepts_the_mutants_lasso_and_rejects_a_cut_one():
    from repro.problems import get_problem
    from repro.runtime.kernel import StepInstance
    from repro.verify import verify_instance
    from repro.request import RunRequest

    spec = get_problem("figure-1-mutex-even-m")
    inst = spec.instance("figure-1-mutex-even-m(m=4)")
    report = verify_instance(spec, inst, request=RunRequest(kernel="compiled"))
    (outcome,) = report.outcomes
    lasso = outcome.verdict.lasso
    system = spec.system(inst)
    args = (StepInstance.from_system(system), system.scheduler.capture_state())
    assert workloads.lasso_problem(*args, lasso.prefix, lasso.cycle) is None
    assert workloads.lasso_problem(*args, lasso.prefix, lasso.cycle[:-1])
