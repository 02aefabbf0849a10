"""The traced run: spans at layer boundaries and the layer decomposition.

Nothing here edits ``src/``.  Spans come from two places, both in this
file:

* **Wrappers around layer entry points**, installed for the traced op
  only and removed right after it: ``compile_program``,
  ``CompiledBackend.run``, ``verify.runner.explore``, the liveness
  checkers, ``write_verify_manifest``, ``create_farm``, the run table's
  ``claim``/``finish`` and the farm's manifest append.  The op itself is
  the same user call the untraced ops make.
* **Separate calls after the op.**  The serial walk is one call, so its
  inner layers cannot be timed from outside.  The benchmark *replays*
  each compiled walk of the op breadth-first in 512-state batches
  through ``CompiledProgram.expand_batch``,
  ``PackedDigestTables.batch_keys`` and ``compile_checker``, and dedups
  with its own dict.  Replay times are therefore shares of the batched
  primitives (the parallel backend's hot path), not the serial loop's
  self times; ``walk.unattributed_s`` is the signed rest.  Graph
  retention is timed as ``retain_graph=True`` minus ``False``, and the
  fuzz search as ``run_fuzz(shrink=False, validate=False)``.
"""

import os
import time
from array import array

from spans import Spans
from workloads import lasso_problem

#: Every per-layer metric, in BENCHMARK.json order.  Each traced result
#: carries all of them, so a layer that does not run on a workload
#: reports 0 there (only end-to-end metrics must never read 0).
LAYER_METRICS = (
    "process.interp_s", "process.import_s", "problems.registry_s",
    "compile.s", "compile.local_states", "compile.domain_values",
    "expand.s", "expand.edges", "expand.inert_edges",
    "digest.s", "digest.candidates", "digest.key_bytes",
    "dedup.s", "dedup.attempts", "dedup.hit_ratio", "dedup.orbit_hits",
    "invariant.s", "invariant.suspect_ratio",
    "walk.s", "walk.states", "walk.events", "walk.states_per_s",
    "walk.unattributed_s",
    "retain.s", "retain.edges", "retain.bytes_per_edge", "retain.to_bytes_s",
    "liveness.df_s", "liveness.of_s", "liveness.lasso_steps",
    "manifest.write_s", "manifest.bytes",
    "fuzz.search_s", "fuzz.steps", "fuzz.distinct_states",
    "certify.s", "certify.violations", "certify.shrink_ratio",
    "farm.create_s", "farm.claim_s", "farm.finish_s", "farm.cells",
    "mem.bytes_per_state", "mem.bytes_per_edge",
    "process.teardown_s", "trace.overhead_s",
)

#: States per replay batch (the parallel backend's chunk scale).
BATCH = 512

#: Span name -> per-layer time metric, summed over spans of that name.
SPAN_METRICS = {
    "compile": "compile.s",
    "expand": "expand.s",
    "digest": "digest.s",
    "dedup": "dedup.s",
    "invariant": "invariant.s",
    "walk": "walk.s",
    "retain.to_bytes": "retain.to_bytes_s",
    "liveness.df": "liveness.df_s",
    "liveness.of": "liveness.of_s",
    "manifest.write": "manifest.write_s",
    "farm.create": "farm.create_s",
    "farm.claim": "farm.claim_s",
    "farm.finish": "farm.finish_s",
}


def current_rss():
    """Resident bytes of this process now (Linux ``/proc/self/statm``)."""
    with open("/proc/self/statm") as stream:
        return int(stream.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class Hooks:
    """Timed wrappers around layer entry points, undone by ``restore``."""

    def __init__(self, spans):
        self.spans = spans
        self._undo = []

    def _timed(self, original, name, on_result):
        spans = self.spans

        def wrapper(*args, **kwargs):
            with spans.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def wrap(self, owner, attr, name, on_result=None):
        original = getattr(owner, attr)
        setattr(owner, attr, self._timed(original, name, on_result))
        self._undo.append(lambda: setattr(owner, attr, original))

    def wrap_item(self, mapping, key, name, on_result=None):
        original = mapping[key]
        mapping[key] = self._timed(original, name, on_result)
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def restore(self):
        while self._undo:
            self._undo.pop()()


class Trace:
    """What the traced op's wrappers captured."""

    def __init__(self):
        self.walks = []  # (task, states, events) per CompiledBackend.run
        self.programs = []  # every CompiledProgram compile_program built
        self.lassos = []  # (step instance, initial state, lasso)
        self.graph_edges = 0  # edges of the largest graph a checker saw
        self.manifest_paths = []
        self.cells = 0


def install(hooks, trace, workload):
    """Wrap the entry points of the layers the workload's op reaches."""
    from repro.runtime import compiled

    def on_program(program, _args):
        trace.programs.append(program)

    def on_walk(result, args):
        trace.walks.append(
            (args[1], result.states_explored, result.events_executed)
        )

    hooks.wrap(compiled, "compile_program", "compile", on_program)
    hooks.wrap(compiled.CompiledBackend, "run", "backend.run", on_walk)
    if workload == "verify-suite":
        import repro.verify
        from repro.verify import liveness, runner

        def on_verdict(verdict, args):
            step_instance, graph = args
            trace.graph_edges = max(trace.graph_edges, graph.edge_count)
            if verdict.lasso is not None:
                trace.lassos.append(
                    (step_instance, graph.nodes[graph.initial], verdict.lasso)
                )

        hooks.wrap(runner, "explore", "walk")
        for kind, name in (
            ("deadlock-freedom", "liveness.df"),
            ("obstruction-freedom", "liveness.of"),
        ):
            hooks.wrap_item(liveness.LIVENESS_CHECKERS, kind, name, on_verdict)
        hooks.wrap(
            repro.verify, "write_verify_manifest", "manifest.write",
            lambda path, _args: trace.manifest_paths.append(path),
        )
    elif workload == "fuzz-farm":
        import repro.farm
        from repro.farm import orchestrator, runtable

        def on_create(cells, _args):
            trace.cells += cells

        hooks.wrap(repro.farm, "create_farm", "farm.create", on_create)
        hooks.wrap(runtable.SqliteRunTable, "claim", "farm.claim")
        hooks.wrap(runtable.SqliteRunTable, "finish", "farm.finish")
        hooks.wrap(orchestrator, "_append_manifest", "manifest.write")


def counting_checker(invariant, program, stats):
    """``compile_checker`` whose suspected states are counted.

    The checker unpacks exactly the states its suspicion table flags
    (every state on the generic path), so counting ``unpack`` calls made
    through it counts suspects.
    """
    from repro.runtime.compiled import compile_checker

    unpack = program.unpack

    def counted(packed):
        stats["suspects"] += 1
        return unpack(packed)

    program.unpack = counted
    try:
        return compile_checker(invariant, program)
    finally:
        del program.unpack


def replay(spans, program, invariant, tables=None):
    """Re-walk the program's reachable states breadth-first in batches.

    ``tables`` (a ``PackedDigestTables``) selects canonical dedup, with
    the serial walk's acceleration of steps that leave the raw key
    unchanged; without it packed tuples are the keys, as in the trivial
    walk.  Returns the counts; times land in ``spans``.
    """
    stats = dict.fromkeys(
        ("states", "edges", "inert_edges", "attempts", "hits", "orbit_hits",
         "keys", "candidates", "key_bytes", "suspects", "violations"),
        0,
    )
    check = counting_checker(invariant, program, stats)
    m = program.m
    stride = m + len(program.slots)
    initial = program.initial_packed
    if tables is None:
        visited = {initial: None}
        queue = [(initial, None)]
        key_of = None
    else:
        def key_of(packed):
            return tables.batch_keys(packed, m)[0]

        key, raw = key_of(initial)
        visited = {key: raw}
        queue = [(initial, raw)]
        per_key = len(tables.candidates)
    head = 0
    while head < len(queue):
        chunk = queue[head:head + BATCH]
        head += len(chunk)
        with spans.span("replay.batch"):
            with spans.span("invariant"):
                for state, _raw in chunk:
                    if check(state) is not None:
                        stats["violations"] += 1
            with spans.span("expand"):
                flat = array("q")
                for state, _raw in chunk:
                    flat.extend(state)
                children, edges = program.expand_batch(flat)
            if key_of is not None:
                with spans.span("digest"):
                    keys = tables.batch_keys(children, m)
                stats["keys"] += len(keys)
                stats["candidates"] += per_key * len(keys)
                stats["key_bytes"] += sum(len(key) for key, _raw in keys)
            stats["edges"] += len(edges) // 3
            stats["inert_edges"] += sum(edges[2::3])
            attempts = hits = orbit_hits = 0
            with spans.span("dedup"):
                row = -1
                for j in range(0, len(edges), 3):
                    if edges[j + 2]:
                        continue
                    row += 1
                    child = tuple(children[row * stride:(row + 1) * stride])
                    if key_of is None:
                        attempts += 1
                        if child in visited:
                            hits += 1
                        else:
                            visited[child] = None
                            queue.append((child, None))
                        continue
                    key, raw = keys[row]
                    source_raw = chunk[edges[j]][1]
                    if raw == source_raw:
                        child, key, raw = _accelerate(
                            program, key_of, child, edges[j + 1], raw, stats
                        )
                        if raw == source_raw:
                            continue
                    attempts += 1
                    claimed = visited.get(key)
                    if claimed is not None:
                        hits += 1
                        if claimed != raw:
                            orbit_hits += 1
                        continue
                    visited[key] = raw
                    queue.append((child, raw))
            stats["attempts"] += attempts
            stats["hits"] += hits
            stats["orbit_hits"] += orbit_hits
    stats["states"] = len(queue)
    return stats


def _accelerate(program, key_of, child, slot, raw, stats):
    """Keep stepping ``slot`` while its steps leave the raw key unchanged,
    stopping on a repeated local state -- the serial walk's rule."""
    off = program.m + slot
    halted = program.halted[slot]
    crashed = program.crashed[slot]
    start_raw = raw
    key = None
    seen = {child[off]}
    while raw == start_raw and not (halted[child[off]] or crashed):
        child = program.step_packed(child, slot)
        stats["edges"] += 1
        key, raw = key_of(child)
        if raw == start_raw:
            if child[off] in seen:
                break
            seen.add(child[off])
    return child, key, raw


def replay_walks(spans, trace, metrics, problems):
    """Replay every compiled walk of the op; counts must match the walk's."""
    from repro.runtime.canonical import TrivialCanonicalizer

    totals = {}
    for task, states, _events in trace.walks:
        program = next(
            (p for p in trace.programs if p.instance is task.instance), None
        )
        if program is None:
            continue  # compile overflowed: the walk ran interpreted
        tables = None
        if not isinstance(task.canonicalizer, TrivialCanonicalizer):
            tables = task.canonicalizer.packed_digest_tables(
                program.values, program.states, program.halted,
                program.crashed,
            )
        stats = replay(spans, program, task.invariant, tables)
        if stats["states"] != states:
            problems.append(
                f"replay reached {stats['states']} states, walk {states}"
            )
        for name, value in stats.items():
            totals[name] = totals.get(name, 0) + value
    if not totals:
        return
    metrics["expand.edges"] = totals["edges"]
    metrics["expand.inert_edges"] = totals["inert_edges"]
    metrics["digest.candidates"] = totals["candidates"]
    if totals["keys"]:
        metrics["digest.key_bytes"] = totals["key_bytes"] / totals["keys"]
    metrics["dedup.attempts"] = totals["attempts"]
    metrics["dedup.hit_ratio"] = totals["hits"] / max(totals["attempts"], 1)
    metrics["dedup.orbit_hits"] = totals["orbit_hits"]
    metrics["invariant.suspect_ratio"] = totals["suspects"] / totals["states"]
    if totals["violations"]:
        problems.append(f"replay found {totals['violations']} violations")


def decompose_verify(spans, trace, metrics, problems):
    """Retention cost and graph bytes, one instance at a time.

    ``retain.s`` is ``retain_graph=True`` minus ``False``.  On the
    two-slot instances ``False`` takes the compiled kernel's unrolled
    two-process loop and ``True`` its generic loop, so ``retain.s`` also
    holds the difference between those two loops.
    """
    from repro.problems import instances_with_role
    from repro.runtime.compiled import CompiledBackend
    from repro.runtime.exploration import explore

    edges = graph_bytes = 0
    for spec, inst in instances_with_role("verify", include_mutants=True):
        params = inst.params_dict()
        domain = spec.value_domain(params) if spec.value_domain else ()

        def walk(retain_graph):
            return explore(
                spec.system(inst), spec.invariant,
                max_states=inst.verify_max_states,
                max_depth=inst.verify_max_states,
                retain_graph=retain_graph,
                backend=CompiledBackend(domain_hint=domain),
            )

        with spans.span("retain.plain"):
            walk(False)
        with spans.span("retain.retained"):
            graph = walk(True).graph
        with spans.span("retain.to_bytes"):
            graph_bytes += len(graph.to_bytes())
        edges += graph.edge_count
        del graph
    totals = spans.totals()
    metrics["retain.s"] = (
        totals["retain.retained"][1] - totals["retain.plain"][1]
    )
    metrics["retain.edges"] = edges
    metrics["retain.bytes_per_edge"] = graph_bytes / edges
    metrics["liveness.lasso_steps"] = sum(
        len(lasso.prefix) + len(lasso.cycle) for _, _, lasso in trace.lassos
    )
    if not trace.lassos:
        problems.append("no liveness lasso was reported")
    for step_instance, initial, lasso in trace.lassos:
        problem = lasso_problem(step_instance, initial, lasso.prefix, lasso.cycle)
        if problem:
            problems.append(f"verify lasso: {problem}")
    metrics["manifest.bytes"] = sum(
        os.path.getsize(path) for path in trace.manifest_paths
    )


def decompose_fuzz(spans, trace, metrics, problems, tmp, seed):
    """Search alone vs search + shrink + certification, and the farm."""
    import child
    from repro.fuzz.engine import run_fuzz
    from repro.request import RunRequest

    steps = distinct = 0
    reports = {}
    for name, instance, _flags in child.FUZZ_TARGETS:
        request = RunRequest(
            problem="figure-1-mutex", instance=instance, seed=seed,
            max_steps=256,
        )
        with spans.span(f"fuzz.search.{name}"):
            report = run_fuzz(
                request, episodes=child.FUZZ_EPISODES, shrink=False,
                validate=False,
            )
        steps += report.steps
        distinct += report.distinct_states
        if name == "mutant":
            with spans.span("fuzz.certified.mutant"):
                reports[name] = run_fuzz(request, episodes=child.FUZZ_EPISODES)
    totals = spans.totals()
    search = totals["fuzz.search.mutant"][1] + totals["fuzz.search.clean"][1]
    certified = reports["mutant"].violations
    metrics["fuzz.search_s"] = search
    metrics["fuzz.steps"] = steps
    metrics["fuzz.distinct_states"] = distinct
    metrics["certify.s"] = (
        totals["fuzz.certified.mutant"][1] - totals["fuzz.search.mutant"][1]
    )
    metrics["certify.violations"] = len(certified)
    if certified:
        metrics["certify.shrink_ratio"] = sum(
            len(v.shrunk_schedule) for v in certified
        ) / sum(len(v.schedule) for v in certified)
    else:
        problems.append("the certified mutant search found no violation")
    metrics["farm.cells"] = trace.cells
    metrics["manifest.bytes"] = sum(
        os.path.getsize(os.path.join(tmp, name, entry))
        for name, _instance, _flags in child.FUZZ_TARGETS
        for entry in os.listdir(os.path.join(tmp, name))
        if entry.endswith(".ndjson")
    )


def traced_op(workload, op, tmp, seed, record):
    """Run ``op`` with layer spans, then decompose; returns the record
    fields the parent reads (``t_op``, ``t_done``, outputs, ``layers``,
    ``problems``)."""
    spans = Spans(op=f"{workload}/seed{seed}")
    spans.add("process.import", record["t_start"], record["t_imported"])
    spans.add("problems.registry", record["t_imported"], record["t_ready"])
    trace = Trace()
    hooks = Hooks(spans)
    install(hooks, trace, workload)
    rss_ready = current_rss()
    t_op = time.monotonic()
    try:
        with spans.span("op"):
            if workload.startswith("explore"):
                with spans.span("walk"):
                    outputs = op()
            else:
                outputs = op()
    finally:
        hooks.restore()
    t_done = time.monotonic()
    import child

    grown = child.peak_rss_kib() * 1024 - rss_ready

    metrics = dict.fromkeys(LAYER_METRICS, 0)
    problems = []
    metrics["compile.local_states"] = sum(
        sum(len(states) for states in p.states) for p in trace.programs
    )
    metrics["compile.domain_values"] = sum(len(p.values) for p in trace.programs)
    metrics["walk.states"] = sum(states for _, states, _ in trace.walks)
    metrics["walk.events"] = sum(events for _, _, events in trace.walks)
    if workload == "explore-m9-none":
        metrics["mem.bytes_per_state"] = grown / metrics["walk.states"]
    elif workload == "verify-suite":
        metrics["mem.bytes_per_edge"] = grown / trace.graph_edges
    replay_walks(spans, trace, metrics, problems)
    if workload == "verify-suite":
        decompose_verify(spans, trace, metrics, problems)
    elif workload == "fuzz-farm":
        decompose_fuzz(spans, trace, metrics, problems, tmp, seed)

    totals = spans.totals()
    for name, metric in SPAN_METRICS.items():
        if name in totals:
            metrics[metric] = totals[name][1]
    metrics["process.import_s"] = totals["process.import"][1]
    metrics["problems.registry_s"] = totals["problems.registry"][1]
    if metrics["walk.s"]:
        metrics["walk.states_per_s"] = metrics["walk.states"] / metrics["walk.s"]
        metrics["walk.unattributed_s"] = metrics["walk.s"] - sum(
            metrics[name]
            for name in ("compile.s", "expand.s", "digest.s", "dedup.s",
                         "invariant.s", "retain.s")
        )
    return {
        **outputs,
        "t_op": t_op,
        "t_done": t_done,
        "layers": metrics,
        "problems": problems,
        "spans": {name: entry for name, entry in totals.items()},
    }
