"""Record ``expected.json`` from the interpreted reference engine.

    python3 perfbench/record_expected.py

Run it once per change to the registry's instances or the CLI's output
format, never to make a failing benchmark pass: the ops under test run
the compiled kernel, and their outputs must equal what the interpreted
``step_value`` kernel produces here.  Takes about a minute.
"""

import contextlib
import io
import json
import os
import shutil
import sys

import child
from workloads import EXPECTED_PATH

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def verify_suite(tmp):
    import repro.__main__

    telemetry = os.path.join(tmp, "telemetry")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = repro.__main__.main(
            ["verify", "--kernel", "interpreted", "--telemetry", telemetry]
        )
    if code != 0:
        raise SystemExit(f"reference verify exited {code}")
    manifests = {}
    for name in sorted(os.listdir(telemetry)):
        with open(os.path.join(telemetry, name)) as stream:
            outcome = json.load(stream)["outcome"]
        manifests[name] = {
            key: outcome[key] for key in ("verdict", "states", "retained_edges")
        }
    return {"stdout": out.getvalue().splitlines(), "manifests": manifests}


def explore(problem, label, max_states, reduction):
    import repro
    from repro.problems import get_problem

    spec = get_problem(problem)
    result = repro.explore(
        spec.system(spec.instance(label)),
        spec.invariant,
        max_states=max_states,
        max_depth=child.MAX_DEPTH,
        reduction=reduction,
        kernel="interpreted",
    )
    return {
        "states_explored": result.states_explored,
        "events_executed": result.events_executed,
        "orbits_collapsed": result.orbits_collapsed,
        "complete": result.complete,
        "truncated_by": result.truncated_by,
        "violation": result.violation,
        # The op must run the kernel under test, not fall back.
        "kernel": "compiled",
    }


def main():
    tmp = os.path.join(ROOT, ".perfbench_tmp", "record")
    os.makedirs(tmp)
    try:
        expected = {
            "verify-suite": verify_suite(tmp),
            "explore-m9-none": explore(
                "figure-1-mutex", "figure-1-mutex(m=9)",
                child.M9_MAX_STATES, "none",
            ),
            "explore-symmetry": explore(
                "figure-2-consensus", "figure-2-consensus(n=3,equal)",
                child.SYMMETRY_MAX_STATES, "symmetry",
            ),
            # Fuzz counts depend on the seed; these are the seed-free
            # verdicts: the mutant is caught, m=7 stays clean, no cell
            # ends in error.
            "fuzz-farm": {
                "episodes": child.FUZZ_EPISODES,
                "cells": child.FUZZ_EPISODES // 8,
                "mutant_instance": child.FUZZ_TARGETS[0][1],
                "farms": {
                    "mutant": {"min_violations": 1,
                               "max_violations": child.FUZZ_EPISODES},
                    "clean": {"min_violations": 0, "max_violations": 0},
                },
            },
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(EXPECTED_PATH, "w") as stream:
        json.dump(expected, stream, indent=1, sort_keys=True)
        stream.write("\n")


if __name__ == "__main__":
    main()
