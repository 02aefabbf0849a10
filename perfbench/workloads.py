"""The per-op output checks.

The op code itself is in ``child.py`` (it must import nothing of the
benchmark before the op); why each workload exists is in BENCHMARK.json
and README.md.  Expected values live in ``expected.json``, recorded by
``record_expected.py`` from the interpreted reference engine.  A check
returns a list of mismatches; an empty list passes.
"""

import json
import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")


def load_expected():
    with open(EXPECTED_PATH) as stream:
        return json.load(stream)


def read_lines(path):
    with open(path) as stream:
        return stream.read().splitlines()


def lasso_problem(step_instance, initial, prefix, cycle):
    """Why a lasso is not a fair non-progress cycle, or ``None``.

    Replays it on the pure interpreted kernel: the cycle must close back
    on its entry state, every live process must step in it and no step
    may enter the critical section.
    """
    from repro.runtime.kernel import step_value

    def in_cs(state, pid):
        for entry_pid, local, _halted, _crashed in state[1]:
            if entry_pid == pid:
                return step_instance.automata[pid].in_critical_section(local)
        raise KeyError(pid)

    state = initial
    for pid in prefix:
        state = step_value(step_instance, state, pid)
    entry = state
    for pid in cycle:
        before = in_cs(state, pid)
        state = step_value(step_instance, state, pid)
        if not before and in_cs(state, pid):
            return f"process {pid} enters the critical section in the cycle"
    if state != entry:
        return "the cycle does not close on its entry state"
    live = {
        pid for pid, _local, halted, crashed in entry[1]
        if not (halted or crashed)
    }
    if set(cycle) != live:
        return f"the cycle steps {sorted(set(cycle))}, live are {sorted(live)}"
    return None


def check_verify(tmp, record, expected):
    problems = []
    if record.get("exit_codes") != [0]:
        problems.append(f"exit codes {record.get('exit_codes')}, want [0]")
    lines = read_lines(os.path.join(tmp, "verify.out"))
    if lines != expected["stdout"]:
        problems.append(f"stdout differs: {lines!r}")
    directory = os.path.join(tmp, "telemetry")
    names = sorted(os.listdir(directory))
    if names != sorted(expected["manifests"]):
        problems.append(f"manifests {names}")
        return problems
    for name, want in expected["manifests"].items():
        with open(os.path.join(directory, name)) as stream:
            outcome = json.load(stream)["outcome"]
        got = {key: outcome.get(key) for key in want}
        if got != want:
            problems.append(f"{name}: {got} != {want}")
    return problems


def check_explore(tmp, record, expected):
    if record.get("result") != expected:
        return [f"result {record.get('result')} != {expected}"]
    return []


_CELLS = re.compile(r"^fuzz farm: (\d+) cell\(s\) at ")
_SUMMARY = re.compile(
    r"^figure-1-mutex: (\d+) cells — (\d+) done, 0 pending, 0 claimed, 0 error$"
)
_TOTAL = re.compile(r"^total: (\d+) episode\(s\), \d+ steps, (\d+) violation\(s\)$")
_LASSO = re.compile(r"^\s+shrunk lasso: prefix \[([\d, ]*)\], then repeat \[([\d, ]*)\]")


def _pids(text):
    return tuple(int(pid) for pid in text.split(",") if pid.strip())


def check_fuzz(tmp, record, expected):
    problems = []
    if record.get("exit_codes") != [0, 0]:
        problems.append(f"exit codes {record.get('exit_codes')}, want [0, 0]")
    for name, want in expected["farms"].items():
        lines = read_lines(os.path.join(tmp, name + ".out"))
        cells = [int(m.group(1)) for m in map(_CELLS.match, lines) if m]
        summary = [m.groups() for m in map(_SUMMARY.match, lines) if m]
        totals = [m.groups() for m in map(_TOTAL.match, lines) if m]
        want_cells = str(expected["cells"])
        if cells != [expected["cells"]] or summary != [(want_cells, want_cells)]:
            problems.append(f"{name}: cells {cells}, summary {summary}")
        if len(totals) != 1 or int(totals[0][0]) != expected["episodes"]:
            problems.append(f"{name}: totals {totals}")
            continue
        violations = int(totals[0][1])
        if not want["min_violations"] <= violations <= want["max_violations"]:
            problems.append(f"{name}: {violations} violations, want {want}")
        lassos = [m.groups() for m in map(_LASSO.match, lines) if m]
        if len(lassos) != violations:
            problems.append(f"{name}: {len(lassos)} lassos printed")
        if lassos:
            problem = _fuzz_lasso_problem(
                expected["mutant_instance"], *map(_pids, lassos[0])
            )
            if problem:
                problems.append(f"{name}: first lasso: {problem}")
    return problems


def _fuzz_lasso_problem(instance, prefix, cycle):
    from repro.request import RunRequest
    from repro.runtime.kernel import StepInstance

    spec, inst = RunRequest(problem="figure-1-mutex", instance=instance).resolve()
    system = spec.system(inst)
    return lasso_problem(
        StepInstance.from_system(system),
        system.scheduler.capture_state(),
        prefix,
        cycle,
    )


CHECKS = {
    "verify-suite": check_verify,
    "explore-m9-none": check_explore,
    "explore-symmetry": check_explore,
    "fuzz-farm": check_fuzz,
}


def check(workload, tmp, record, expected):
    """Mismatches between one op's outputs and the expected file."""
    try:
        return CHECKS[workload](tmp, record, expected[workload])
    except (OSError, ValueError, KeyError) as error:
        return [f"{type(error).__name__}: {error}"]
