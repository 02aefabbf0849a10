#!/usr/bin/env python3
"""CI gate for the table-compiled step kernel's throughput claim.

Runs the mutex m=7 bench instance (the headline row of
``BENCH_explore.json``) under the seed engine and the compiled kernel —
same trivial-dedup walk, same budgets, same process — checks that the
two results agree on every deterministic field (states, events, max
depth, truncation, violation and schedule, peak visited), and exits
non-zero on a mismatch or when the measured ``speedup_vs_interpreted``
falls below the threshold.  ``--m 9 --threshold 0`` checks only the
agreement, on a walk the 500,000-state budget cuts, at the widest slot
fields of the two-process walk's int states.

The committed benchmark records the full ≥10× measurement; CI holds the
gate at 5× (``--threshold 5``) so shared-runner noise cannot flake an
honest build.  On a single-CPU host the correctness checks still run
but the throughput gate is skipped (exit 0), not failed: a degraded
host measures contention, not the kernel.

Run with:   PYTHONPATH=src python benchmarks/check_compiled_speedup.py
"""

import argparse
import os
import sys

from repro.core.mutex import AnonymousMutex
from repro.runtime.canonical import TrivialCanonicalizer
from repro.runtime.compiled import CompiledBackend
from repro.runtime.exploration import explore, mutual_exclusion_invariant
from repro.runtime.system import System

PIDS = (101, 103)

#: The exploration benchmark's budgets (BENCH_BUDGETS in
#: run_experiments.py) — m=7 completes exhaustively well inside them.
BUDGETS = {"max_states": 500_000, "max_depth": 1_000_000}


def run(m, backend):
    system = System(AnonymousMutex(m=m, cs_visits=1), PIDS, record_trace=False)
    return explore(
        system,
        mutual_exclusion_invariant,
        canonicalizer=TrivialCanonicalizer(system.scheduler),
        backend=backend,
        **BUDGETS,
    )


#: The result fields both kernels must agree on.
FINGERPRINT = (
    "ok",
    "complete",
    "truncated_by",
    "violation",
    "violation_schedule",
    "states_explored",
    "events_executed",
    "max_depth_reached",
    "stuck_states",
    "orbits_collapsed",
    "peak_visited",
)


def mismatches(interpreted, compiled):
    """``(field, interpreted value, compiled value)`` for every field of
    :data:`FINGERPRINT` on which the two results differ."""
    return [
        (name, getattr(interpreted, name), getattr(compiled, name))
        for name in FINGERPRINT
        if getattr(interpreted, name) != getattr(compiled, name)
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--m", type=int, default=7, metavar="M",
        help="mutex register count (default: 7, the headline instance)",
    )
    parser.add_argument(
        "--threshold", type=float, default=5.0, metavar="X",
        help="minimum acceptable compiled/interpreted throughput ratio "
             "(default: 5)",
    )
    args = parser.parse_args(argv)

    interpreted = run(args.m, backend=None)
    compiled = run(args.m, backend=CompiledBackend())
    if compiled.kernel != "compiled":
        print(f"FAIL: table compilation fell back to {compiled.kernel!r}")
        return 1
    differences = mismatches(interpreted, compiled)
    for name, expected, got in differences:
        print(f"FAIL: {name}: interpreted {expected!r}, compiled {got!r}")
    if differences:
        return 1

    if not interpreted.states_per_second or not compiled.states_per_second:
        print("walk finished below timer resolution; cannot gate throughput")
        return 1
    speedup = compiled.states_per_second / interpreted.states_per_second
    print(
        f"mutex m={args.m}: {interpreted.states_explored} states, "
        f"{interpreted.events_executed} events, "
        f"truncated_by={interpreted.truncated_by}, identical on both kernels; "
        f"interpreted {interpreted.states_per_second:,.0f}/s, "
        f"compiled {compiled.states_per_second:,.0f}/s "
        f"-> speedup x{speedup:.2f} (threshold x{args.threshold})"
    )
    if (os.cpu_count() or 1) == 1:
        print(
            "degraded host (1 cpu): correctness checks passed; "
            "speedup gate skipped, not failed"
        )
        return 0
    if speedup < args.threshold:
        print(
            f"FAIL: compiled kernel speedup x{speedup:.2f} is below the "
            f"x{args.threshold} gate"
        )
        return 1
    print("compiled speedup gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
