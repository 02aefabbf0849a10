"""Kernel-differential pinning: at a fixed seed the fuzzer produces
byte-identical reports — schedules, violations, shrunk witnesses,
coverage counts — under the compiled and interpreted kernels.

This holds because packing is a bijection on the reachable closure
(state revisits happen at identical schedule positions) and both
steppers derive identical :class:`~repro.fuzz.strategies.FuzzContext`
snapshots (same enabled order, same pending physical registers), so the
strategies' RNG streams never diverge.
"""

import json
from functools import partial

import pytest

from repro.fuzz.engine import run_fuzz
from repro.request import RunRequest
from repro.runtime import compiled as compiled_module

KERNEL_KEYS = ("kernel", "effective_kernel")


def report_dict(instance, kernel, episodes):
    report = run_fuzz(
        RunRequest(
            problem="figure-1-mutex",
            instance=instance,
            seed=7,
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
