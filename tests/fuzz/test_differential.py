"""Kernel-differential pinning: at a fixed seed the fuzzer produces
byte-identical reports — schedules, violations, shrunk witnesses,
coverage counts — under the compiled and interpreted kernels.

This holds because packing and the step memo's ids are both bijections
on the reachable closure (state revisits happen at identical schedule
positions) and both steppers derive identical
:class:`~repro.fuzz.strategies.FuzzContext` snapshots (same enabled
order, same pending physical registers), so the strategies' RNG streams
never diverge.  The mutex targets run the deadlock-freedom oracle and
mutual exclusion; consensus, renaming and election run the
obstruction-freedom oracle and agreement, validity and unique names.
"""

import json
from functools import partial

import pytest

from repro.fuzz.engine import run_fuzz
from repro.request import RunRequest
from repro.runtime import compiled as compiled_module

KERNEL_KEYS = ("kernel", "effective_kernel")


def report_dict(instance, kernel, episodes, problem="figure-1-mutex", seed=7):
    report = run_fuzz(
        RunRequest(
            problem=problem,
            instance=instance,
            seed=seed,
            kernel=kernel if kernel == "compiled" else None,
        ),
        episodes=episodes,
    )
    document = report.to_dict()
    assert document.pop("kernel") == (kernel if kernel == "compiled" else "interpreted")
    assert document.pop("effective_kernel") == kernel
    return document


@pytest.mark.parametrize("instance, episodes, expect_found", [
    ("figure-1-mutex-even-m", 8, True),
    ("figure-1-mutex(m=3)", 8, False),
])
def test_compiled_and_interpreted_reports_byte_identical(
    instance, episodes, expect_found
):
    interpreted = report_dict(instance, "interpreted", episodes)
    compiled = report_dict(instance, "compiled", episodes)
    assert bool(interpreted["violations"]) == expect_found
    assert json.dumps(interpreted, sort_keys=True) == json.dumps(
        compiled, sort_keys=True
    )


@pytest.mark.parametrize("seed", [1, 7, 12345])
@pytest.mark.parametrize("problem, instance", [
    ("figure-2-consensus", "figure-2-consensus(n=2)"),
    ("figure-2-consensus", "figure-2-consensus(n=3,equal)"),
    ("figure-3-renaming", "figure-3-renaming(n=2)"),
    ("election", "election(n=2)"),
])
def test_obstruction_free_targets_byte_identical(problem, instance, seed):
    interpreted = report_dict(instance, "interpreted", 16, problem, seed)
    compiled = report_dict(instance, "compiled", 16, problem, seed)
    assert interpreted["steps"] > 0 and not interpreted["violations"]
    assert json.dumps(interpreted, sort_keys=True) == json.dumps(
        compiled, sort_keys=True
    )


def test_a_compiled_run_past_the_caps_reruns_interpreted(monkeypatch):
    # The tables fill as the fuzzer steps; four local states per slot
    # compile the initial state but not a whole run.
    monkeypatch.setattr(
        compiled_module,
        "compile_program",
        partial(compiled_module.compile_program, max_local_states=4),
    )
    interpreted = report_dict("figure-1-mutex-even-m", "interpreted", 8)
    report = run_fuzz(
        RunRequest(
            problem="figure-1-mutex",
            instance="figure-1-mutex-even-m",
            seed=7,
            kernel="compiled",
        ),
        episodes=8,
    ).to_dict()
    assert report.pop("kernel") == "compiled"
    assert report.pop("effective_kernel") == "interpreted"
    assert json.dumps(interpreted, sort_keys=True) == json.dumps(
        report, sort_keys=True
    )
