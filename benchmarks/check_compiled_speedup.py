#!/usr/bin/env python3
"""CI gate for the table-compiled step kernel's throughput claim.

Runs the mutex m=7 bench instance (the headline row of
``BENCH_explore.json``) under the seed engine and the compiled kernel —
same trivial-dedup walk, same budgets, same process — checks that the
two results agree on every deterministic field (states, events, max
depth, truncation, violation and schedule, peak visited), and exits
non-zero on a mismatch or when the measured ``speedup_vs_interpreted``
falls below the threshold.  ``--m 9 --threshold 0`` and
``--m 11 --threshold 0`` check only the agreement, on walks the
500,000-state budget cuts.  At m=11 an automaton could reach 177,205
local states on its own, over the compiler's default 65,536-state cap;
the tables hold only what the walk reaches, and the check fails if the
compiled kernel falls back to the interpreter.

``--retain-graph`` runs both walks with ``retain_graph=True`` and adds
the retained graph to the compared fingerprint: its node and edge
counts, its ``complete`` flag and a SHA-256 of ``to_bytes()``.  No
value-domain hint is passed, so on mutex m=9 the compiled walk widens
its register fields twice with the graph already holding nodes.

``--instance LABEL`` walks a registry instance under its problem's
invariant instead of two-process mutex, and ``--reduction symmetry``
walks the symmetry quotient instead of every state.  With
``--instance 'figure-2-consensus(n=3,equal)' --reduction symmetry
--threshold 0`` the compiled quotient walk of three-process consensus
(group order 6) must match the interpreted one on 199,100 states,
587,505 events and 109,945 orbit hits.

The committed benchmark records the full ≥10× measurement; CI holds the
gate at 5× (``--threshold 5``) so shared-runner noise cannot flake an
honest build.  On a single-CPU host the correctness checks still run
but the throughput gate is skipped (exit 0), not failed: a degraded
host measures contention, not the kernel.

Run with:   PYTHONPATH=src python benchmarks/check_compiled_speedup.py
"""

import argparse
import hashlib
import os
import sys

from repro.core.mutex import AnonymousMutex
from repro.request import resolve_target
from repro.runtime.compiled import CompiledBackend
from repro.runtime.exploration import explore, mutual_exclusion_invariant
from repro.runtime.system import System

PIDS = (101, 103)

#: The exploration benchmark's budgets (BENCH_BUDGETS in
#: run_experiments.py) — m=7 completes exhaustively well inside them.
BUDGETS = {"max_states": 500_000, "max_depth": 1_000_000}


def null_invariant(_system):
    return None


def target(m, label=None):
    """``(name, system factory, invariant)``: two-process mutex with
    ``m`` registers, or the registry instance ``label`` under its
    problem's invariant."""
    if label is None:
        return (
            f"mutex m={m}",
            lambda: System(
                AnonymousMutex(m=m, cs_visits=1), PIDS, record_trace=False
            ),
            mutual_exclusion_invariant,
        )
    spec, inst = resolve_target(label.split("(", 1)[0], label)
    return label, lambda: spec.system(inst), spec.invariant or null_invariant


def run(build, invariant, backend, reduction="none", retain_graph=False):
    return explore(
        build(),
        invariant,
        reduction=reduction,
        backend=backend,
        retain_graph=retain_graph,
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


def fingerprint(result):
    """Field name -> value: every field of :data:`FINGERPRINT`, plus
    the retained graph's node and edge counts, ``complete`` flag and
    ``to_bytes()`` digest when the walk retained one."""
    fields = {name: getattr(result, name) for name in FINGERPRINT}
    graph = result.graph
    if graph is not None:
        fields["graph.nodes"] = len(graph)
        fields["graph.edges"] = graph.edge_count
        fields["graph.complete"] = graph.complete
        fields["graph.sha256"] = hashlib.sha256(graph.to_bytes()).hexdigest()
    return fields


def mismatches(interpreted, compiled):
    """``(field, interpreted value, compiled value)`` for every
    :func:`fingerprint` field on which the two results differ."""
    expected, got = fingerprint(interpreted), fingerprint(compiled)
    names = list(expected) + [name for name in got if name not in expected]
    return [
        (name, expected.get(name), got.get(name))
        for name in names
        if expected.get(name) != got.get(name)
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
    parser.add_argument(
        "--retain-graph", action="store_true",
        help="retain both walks' state graphs and compare them too",
    )
    parser.add_argument(
        "--instance", metavar="LABEL", default=None,
        help="walk this registry instance under its problem's invariant "
             "instead of two-process mutex (--m is then ignored)",
    )
    parser.add_argument(
        "--reduction", choices=("none", "symmetry"), default="none",
        help="walk every state, or the symmetry quotient (default: none)",
    )
    args = parser.parse_args(argv)
    if args.retain_graph and args.reduction != "none":
        parser.error("--retain-graph needs --reduction none")

    name, build, invariant = target(args.m, args.instance)
    interpreted = run(
        build, invariant, backend=None, reduction=args.reduction,
        retain_graph=args.retain_graph,
    )
    compiled = run(
        build, invariant, backend=CompiledBackend(), reduction=args.reduction,
        retain_graph=args.retain_graph,
    )
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
    graph = ""
    if args.retain_graph:
        fields = fingerprint(interpreted)
        graph = (
            f"graph {fields['graph.nodes']} nodes, {fields['graph.edges']} "
            f"edges, sha256 {fields['graph.sha256'][:16]}…, "
        )
    orbits = ""
    if args.reduction != "none":
        orbits = f"{interpreted.orbits_collapsed} orbit hits, "
    print(
        f"{name} ({args.reduction}): {interpreted.states_explored} states, "
        f"{interpreted.events_executed} events, {orbits}"
        f"truncated_by={interpreted.truncated_by}, {graph}"
        f"identical on both kernels; "
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
