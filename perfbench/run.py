"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed 7] [--seconds 28] [--trace 0|1]

Run from anywhere inside a checkout; the program is ``src/repro`` of the
checkout this file sits in.  One closed-loop client runs one op at a
time, each op in a fresh interpreter (``child.py``), so at most two
processes run at once.  The last line of stdout is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones of one traced op (see ``layers.py``).
The line before it records the seed, the host and every sample, the
ops' wall times included.

Times are reported at a fixed host speed.  On a shared host the speed
of one vCPU drifts by up to 2x within seconds (single m=9 ops took 2.2
to 4.3 s within a few minutes, set-up samples 0.09 to 0.20 s), so
wall-clock medians of a run spread 15-30% across runs.  A run pins
itself, and so every child it spawns, to one CPU.  While a child runs,
this process wakes every ``SPEED_PERIOD`` seconds and times a small
fixed pure-Python loop on that CPU, so the loop sees the host as the
child does.  Each op is divided by the median loop time during it, and
each set-up sample by the median during its group of set-up probes,
and scaled to ``NOMINAL_SPEED_S``, the loop's time on an idle host:
``setup_s`` and ``op_s_p50`` are the medians of those scaled times.
The loop is benchmark code, so only a change of the program moves them;
the record line keeps the wall-clock medians.
"""

import argparse
import compileall
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

#: End-to-end metrics, in BENCHMARK.json order.
END_TO_END = ("setup_s", "op_s_p50", "peak_rss_mb")

#: Set-up-only probes after every op, and the least set-up samples a run
#: takes (op processes included): one sample spreads 20-35% on a shared
#: host, so the run reports the median of many.
PROBES_PER_OP = 4
MIN_SETUP_SAMPLES = 30

#: Tuples the speed loop hashes into a set (the walks' own kind of work;
#: about 2 ms), and the seconds between two speed loops while a child
#: runs.  The loops take about 4% of the child's CPU, on every commit
#: alike.
SPEED_TUPLES = 5000
SPEED_PERIOD = 0.05

#: The speed loop's time on an idle 2-vCPU Xeon VM (CPython 3.11): the
#: host speed every time is scaled to.
NOMINAL_SPEED_S = 0.0015


def speed_loop():
    """Seconds a small fixed pure-Python loop takes: the host's speed now."""
    started = time.perf_counter()
    seen = set()
    add = seen.add
    for i in range(SPEED_TUPLES):
        add((i, i % 7, i % 11, i % 13, i >> 3, i & 255, 1, 2, 3, 4, 5))
    return time.perf_counter() - started


def pin_to_one_cpu():
    """Pin this process, and so every child it spawns, to one CPU.

    The speed loop then times the CPU the child runs on.  A loop timed
    next to the op instead of during it, or on the other CPU, left the
    ratio of op to loop spread 13-17% across ops; timed during it on the
    same CPU, 6%.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def spawn(mode, workload, tmp, seed):
    """Run ``child.py`` to completion in ``tmp``.

    Returns ``(spawned_at, exited_at, exit_status, record, speeds)``;
    ``record`` is the child's ``child.json`` (``{}`` if it wrote none)
    and ``speeds`` the speed loop's times while the child ran, at least
    one.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = [sys.executable, os.path.join(HERE, "child.py"), mode, workload,
            tmp, str(seed)]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, os.path.join(tmp, "stdout.txt"), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.path.join(tmp, "stderr.txt"), flags, 0o644),
    ]
    spawned = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    speeds = []
    try:
        pidfd = os.pidfd_open(pid)
        try:
            while True:
                speeds.append(speed_loop())
                if select.select([pidfd], [], [], SPEED_PERIOD)[0]:
                    break
        finally:
            os.close(pidfd)
        _pid, status = os.waitpid(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    exited = time.monotonic()
    try:
        with open(os.path.join(tmp, "child.json")) as stream:
            record = json.load(stream)
    except (OSError, ValueError):
        record = {}
    return spawned, exited, os.waitstatus_to_exitcode(status), record, speeds


class Runner:
    """One run: ops and probes of one workload, with their samples."""

    def __init__(self, workload, seed, expected):
        self.workload = workload
        self.seed = seed
        self.expected = expected
        self.setup = []  # (spawn to ready, median speed loop around it)
        self.ops = []  # one dict per checked op
        self.count = 0

    def _tmp(self):
        self.count += 1
        path = os.path.join(TMP_ROOT, f"{os.getpid()}-{self.count}")
        os.makedirs(path)
        return path

    def probes(self):
        """``PROBES_PER_OP`` set-up-only children; each sample is paired
        with the median speed loop of the whole group."""
        samples, speeds = [], []
        for _ in range(PROBES_PER_OP):
            tmp = self._tmp()
            try:
                spawned, _exited, status, record, during = spawn(
                    "setup", self.workload, tmp, self.seed
                )
            finally:
                shutil.rmtree(tmp)
            if status != 0 or "t_ready" not in record:
                raise RuntimeError(f"set-up probe exited {status}")
            samples.append(record["t_ready"] - spawned)
            speeds += during
        speed = statistics.median(speeds)
        self.setup += [(sample, speed) for sample in samples]

    def op(self, mode="op"):
        tmp = self._tmp()
        try:
            spawned, exited, status, record, speeds = spawn(
                mode, self.workload, tmp, self.seed
            )
            problems = [] if status == 0 else [f"exit status {status}"]
            if "t_ready" not in record:
                problems.append("no child record")
                with open(os.path.join(tmp, "stderr.txt")) as stream:
                    problems.append(stream.read()[-2000:])
            else:
                problems += workloads.check(
                    self.workload, tmp, record, self.expected
                )
                problems += record.get("problems", [])
        finally:
            shutil.rmtree(tmp)
        sample = {"ok": not problems, "problems": problems,
                  "wall_s": exited - spawned, "speed_s": statistics.median(speeds)}
        if "t_ready" in record:
            sample.update(
                setup_s=record["t_ready"] - spawned,
                rss_kib=record["peak_rss_kib"],
                interp_s=record["t_start"] - spawned,
                teardown_s=exited - record["t_end"],
            )
            if mode == "op":
                sample.update(
                    op_s=exited - record["t_ready"],
                    core_s=record["t_done"] - record["t_ready"],
                )
            else:
                sample.update(
                    traced_s=record["t_done"] - record["t_op"],
                    layers=record["layers"],
                    spans=record["spans"],
                )
        if problems:
            print(f"[{self.workload}] op failed: {problems}", file=sys.stderr)
        self.ops.append(sample)
        return sample

    def loop(self, seconds):
        """Ops, each followed by probes, for about ``seconds``: at least
        one op, and no op that would likely end more than half an op
        past the deadline."""
        deadline = time.monotonic() + seconds
        while True:
            started = time.monotonic()
            sample = self.op()
            if "op_s" in sample:
                self.setup.append((sample["setup_s"], sample["speed_s"]))
            self.probes()
            if time.monotonic() + (time.monotonic() - started) / 2 >= deadline:
                break
        while len(self.setup) < MIN_SETUP_SAMPLES:
            self.probes()

    def timed_ops(self):
        return [op for op in self.ops if "op_s" in op]

    def end_to_end(self):
        timed = self.timed_ops()
        return {
            "setup_s": scaled_median(self.setup),
            "op_s_p50": scaled_median((op["op_s"], op["speed_s"]) for op in timed),
            "peak_rss_mb": max(op["rss_kib"] for op in timed) / 1024,
        }

    def per_layer(self, traced):
        layers = dict(traced["layers"])
        layers["process.interp_s"] = traced["interp_s"]
        layers["process.teardown_s"] = traced["teardown_s"]
        # Both at the fixed host speed: the traced op runs minutes apart
        # from some of the untraced ones.
        core = scaled_median((op["core_s"], op["speed_s"]) for op in self.timed_ops())
        traced_s = scaled_median([(traced["traced_s"], traced["speed_s"])])
        layers["trace.overhead_s"] = traced_s - core
        return layers


def scaled_median(pairs):
    """Median of ``(seconds, speed loop seconds)`` pairs, each scaled to
    the nominal host speed."""
    return statistics.median(
        seconds / speed for seconds, speed in pairs
    ) * NOMINAL_SPEED_S


def host_facts():
    rev = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "git_rev": rev,
        "loadavg": os.getloadavg(),
    }


def compile_sources():
    """Byte-compile the program and the benchmark once, as an install
    would, so set-up time does not depend on whether the environment
    lets Python write its bytecode caches (``PYTHONDONTWRITEBYTECODE``)."""
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, maxlevels=0, quiet=1)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        return json.load(stream)


def run(workload, seed, seconds, trace):
    """One run; returns ``(result, record)``."""
    spec = benchmark_spec()
    expected = workloads.load_expected()
    host = host_facts()
    host["pinned_cpu"] = pin_to_one_cpu()
    compile_sources()
    runner = Runner(workload, seed, expected)
    os.makedirs(TMP_ROOT, exist_ok=True)
    try:
        if trace:
            # The whole traced child (set-up, op, decomposition, exit)
            # counts against the run's length.
            traced = runner.op(mode="traced")
            runner.loop(max(seconds - traced["wall_s"], 0))
        else:
            runner.loop(seconds)
    finally:
        shutil.rmtree(TMP_ROOT, ignore_errors=True)
    failed = sum(not op["ok"] for op in runner.ops)
    metrics = {}
    if not failed:
        if trace:
            values, listed = runner.per_layer(traced), spec["per_layer"]
        else:
            values, listed = runner.end_to_end(), spec["end_to_end"]
        metrics = {
            entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
            for entry in listed
        }
        if len(values) != len(metrics):
            raise RuntimeError(
                f"BENCHMARK.json lists {sorted(metrics)}, "
                f"the run measured {sorted(values)}"
            )
    result = {
        "correct": failed == 0,
        "attempted": len(runner.ops),
        "failed": failed,
        "metrics": metrics,
    }
    wall = [op["op_s"] for op in runner.timed_ops()]
    setup = [seconds for seconds, _speed in runner.setup]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host,
        # The wall-clock medians, what a user waits; too noisy to gate on.
        "wall_setup_s": statistics.median(setup) if setup else None,
        "wall_op_s_p50": statistics.median(wall) if wall else None,
        "setup_samples": runner.setup,
        "ops": runner.ops,
    }
    return result, record


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CHECKS))
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (default: 7, the CI fuzz seed)")
    parser.add_argument("--seconds", type=float, default=28,
                        help="how long the run measures (default: 28)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to benchmark: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the checks replay lassos on the reference kernel
    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
