"""One benchmark op in a fresh interpreter.

Started by ``perfbench/run.py`` as::

    python3 perfbench/child.py MODE WORKLOAD TMPDIR SEED

with ``src`` on ``PYTHONPATH`` and stdout/stderr redirected into TMPDIR.
MODE is one of

* ``op``     -- set up (imports, registry, resolved inputs), run the
  user's call once, exit;
* ``setup``  -- set up and exit: a set-up-only probe for ``setup_s``;
* ``traced`` -- the op with spans around the layer entry points, then
  the layer decomposition of ``perfbench/layers.py``.

The child writes ``TMPDIR/child.json`` just before it exits, holding its
``time.monotonic()`` stamps (system-wide on Linux, so the parent can
subtract its own spawn time), its peak RSS, the exit codes of the CLI
calls and the op's outputs for the checker.  Nothing of the benchmark is imported
before the op in ``op``/``setup`` mode, so set-up time is the user's.
"""

import time

T_START = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

#: Budgets of the exhaustive walks (``BENCH_BUDGETS`` in
#: benchmarks/run_experiments.py, with the m=9 extended state budget) so
#: every walk completes.
MAX_DEPTH = 1_000_000
M9_MAX_STATES = 1_000_000
SYMMETRY_MAX_STATES = 500_000

#: Episodes per fuzz farm: 32 cells of the CLI's default 8 episodes, so
#: one op (mutant farm + clean farm) lasts a few seconds.
FUZZ_EPISODES = 256

#: The two fuzz targets of one fuzz-farm op: (output name, instance,
#: extra CLI flags).  The even-m mutant must be caught; m=7 must stay clean.
FUZZ_TARGETS = (
    ("mutant", "figure-1-mutex-even-m", ("--expect-violation",)),
    ("clean", "figure-1-mutex(m=7)", ()),
)


def peak_rss_kib():
    """This process's own peak RSS in KiB (Linux ``VmHWM``).

    Not ``ru_maxrss``: at exec a child takes over the high-water mark of
    its parent's memory, so a child smaller than ``run.py`` would report
    ``run.py``'s peak.
    """
    with open("/proc/self/status") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _cli(tmp, name, argv):
    """``python -m repro ARGV`` in this process, stdout into TMP/NAME.out."""
    import repro.__main__

    path = os.path.join(tmp, name + ".out")
    with open(path, "w") as out, contextlib.redirect_stdout(out):
        return repro.__main__.main(argv)


def _import_cli():
    import repro.__main__  # noqa: F401  -- what `python -m repro` imports


def _import_library():
    import repro  # noqa: F401  -- what `import repro` costs a script


def _resolve_verify(tmp, seed):
    from repro.problems import problem_specs

    problem_specs(include_mutants=True)
    argv = [
        "verify", "--kernel", "compiled",
        "--telemetry", os.path.join(tmp, "telemetry"),
    ]
    return lambda: {"exit_codes": [_cli(tmp, "verify", argv)]}


def _resolve_explore(problem, label, max_states, reduction):
    def resolve(tmp, seed):
        import repro
        from repro.problems import get_problem

        spec = get_problem(problem)
        system = spec.system(spec.instance(label))
        invariant = spec.invariant

        def op():
            result = repro.explore(
                system,
                invariant,
                max_states=max_states,
                max_depth=MAX_DEPTH,
                reduction=reduction,
                kernel="compiled",
            )
            return {
                "exit_codes": [],
                "result": {
                    "states_explored": result.states_explored,
                    "events_executed": result.events_executed,
                    "orbits_collapsed": result.orbits_collapsed,
                    "complete": result.complete,
                    "truncated_by": result.truncated_by,
                    "violation": result.violation,
                    "kernel": result.kernel,
                },
            }

        return op

    return resolve


def _resolve_fuzz(tmp, seed):
    from repro.problems import problem_specs

    problem_specs(include_mutants=True)
    calls = [
        (
            name,
            [
                "fuzz", "--problem", "figure-1-mutex", "--instance", instance,
                "--seed", str(seed), "--episodes", str(FUZZ_EPISODES),
                "--out", os.path.join(tmp, name), *flags,
            ],
        )
        for name, instance, flags in FUZZ_TARGETS
    ]
    return lambda: {
        "exit_codes": [_cli(tmp, name, argv) for name, argv in calls]
    }


#: workload -> (imports, resolve).  ``resolve(tmp, seed)`` builds the
#: registry and inputs and returns the op: a call returning its outputs.
WORKLOADS = {
    "verify-suite": (_import_cli, _resolve_verify),
    "explore-m9-none": (
        _import_library,
        _resolve_explore(
            "figure-1-mutex", "figure-1-mutex(m=9)", M9_MAX_STATES, "none"
        ),
    ),
    "explore-symmetry": (
        _import_library,
        _resolve_explore(
            "figure-2-consensus", "figure-2-consensus(n=3,equal)",
            SYMMETRY_MAX_STATES, "symmetry",
        ),
    ),
    "fuzz-farm": (_import_cli, _resolve_fuzz),
}


def main(argv):
    mode, workload, tmp, seed = argv
    seed = int(seed)
    imports, resolve = WORKLOADS[workload]
    imports()
    t_imported = time.monotonic()
    op = resolve(tmp, seed)
    t_ready = time.monotonic()
    record = {"t_start": T_START, "t_imported": t_imported, "t_ready": t_ready}
    if mode == "op":
        record.update(op())
        record["t_done"] = time.monotonic()
    elif mode == "traced":
        import layers

        record.update(layers.traced_op(workload, op, tmp, seed, record))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    record["peak_rss_kib"] = peak_rss_kib()
    record["t_end"] = time.monotonic()
    with open(os.path.join(tmp, "child.json"), "w") as stream:
        json.dump(record, stream)


if __name__ == "__main__":
    main(sys.argv[1:])
