"""State-graph retention: determinism, soundness gates, replayability.

The load-bearing claim is byte-identity: on complete runs the serial
DFS and the compiled DFS retain the *same* :class:`StateGraph` — same
nodes, same per-node edge order, identical :meth:`StateGraph.to_bytes`
output — for every shipped verify-role instance.  Everything downstream
(deadlock-freedom SCCs, solo-run chain walks, lasso schedules) inherits
its determinism from this, so the liveness verdicts and lassos over the
two graphs are pinned equal too.
"""

import pytest

from repro.errors import ConfigurationError
from repro.problems import get_problem, instances_with_role
from repro.runtime.backends import SerialBackend
from repro.runtime.canonical import PackedDigestTables, TrivialCanonicalizer
from repro.runtime.compiled import CompiledBackend
from repro.runtime.exploration import explore
from repro.runtime.kernel import StepInstance, step_value
from repro.verify.graph import GraphBuilder
from repro.verify.liveness import LIVENESS_CHECKERS


def _no_invariant(system):
    return None


def _explore_graph(spec, instance, backend):
    system = spec.system(instance)
    invariant = spec.invariant if spec.invariant is not None else _no_invariant
    result = explore(
        system,
        invariant,
        max_states=instance.verify_max_states,
        max_depth=instance.verify_max_states,
        backend=backend,
        retain_graph=True,
    )
    return system, result


def _backend(engine, spec, instance):
    if engine == "serial":
        return SerialBackend()
    domain = (
        spec.value_domain(instance.params_dict())
        if spec.value_domain is not None
        else ()
    )
    return CompiledBackend(domain_hint=domain)


ENGINES = ("serial", "compiled")

VERIFY_INSTANCES = list(instances_with_role("verify", include_mutants=True))


def _verdict_fields(verdict):
    lasso = verdict.lasso
    return (
        verdict.kind,
        verdict.holds,
        verdict.states,
        verdict.detail,
        None if lasso is None else (lasso.prefix, lasso.cycle),
    )


class TestBackendByteIdentity:
    @pytest.fixture(
        scope="class",
        params=VERIFY_INSTANCES,
        ids=[inst.label for _, inst in VERIFY_INSTANCES],
    )
    def runs(self, request):
        """Each engine's (system, result, verdicts) on one instance."""
        spec, instance = request.param
        out = {}
        for engine in ENGINES:
            system, result = _explore_graph(
                spec, instance, _backend(engine, spec, instance)
            )
            step = StepInstance.from_system(system)
            verdicts = [
                LIVENESS_CHECKERS[declared.kind](step, result.graph)
                for declared in spec.liveness
            ]
            out[engine] = (system, result, verdicts)
        return spec, out

    def test_serial_graph_accounts_for_the_walk(self, runs):
        # One node per state explored and one edge per event executed,
        # every node expanded: the graph the checkers read is the whole
        # walk.
        _, out = runs
        serial = out["serial"][1]
        graph = serial.graph
        assert graph is not None and serial.complete and graph.complete
        assert len(graph) == serial.states_explored
        assert graph.edge_count == serial.events_executed
        assert all(graph.expanded(node) for node in range(len(graph)))

    def test_compiled_graph_is_byte_identical(self, runs):
        _, out = runs
        compiled = out["compiled"][1]
        assert compiled.kernel == "compiled"
        assert compiled.complete
        assert compiled.graph.to_bytes() == out["serial"][1].graph.to_bytes()

    def test_liveness_verdicts_and_lassos_agree(self, runs):
        spec, out = runs
        serial_graph = out["serial"][1].graph
        serial_verdicts = out["serial"][2]
        assert [v.kind for v in serial_verdicts] == [
            declared.kind for declared in spec.liveness
        ]
        for declared, verdict in zip(spec.liveness, serial_verdicts):
            assert verdict.holds is not declared.expect_violation
            assert (verdict.lasso is None) is verdict.holds
        for engine in ENGINES:
            _, result, verdicts = out[engine]
            assert [_verdict_fields(v) for v in verdicts] == [
                _verdict_fields(v) for v in serial_verdicts
            ], engine
            graph = result.graph
            for verdict, reference in zip(verdicts, serial_verdicts):
                if verdict.lasso is not None:
                    # Ordinals are per producer; the entry state is not.
                    entry = graph.nodes[verdict.lasso.entry]
                    assert entry == serial_graph.nodes[reference.lasso.entry]

    def test_keys_are_raw_digests_in_key_order(self, runs):
        _, out = runs
        for engine in ENGINES:
            system, result, _ = out[engine]
            graph = result.graph
            canonicalizer = TrivialCanonicalizer(system.scheduler)
            for ordinal in range(len(graph)):
                assert (
                    graph.key(ordinal)
                    == canonicalizer.key_of_state(graph.nodes[ordinal])[1]
                ), engine
            keys = [graph.key(ordinal) for ordinal in graph.iter_nodes()]
            assert len(keys) == len(graph)
            assert all(a < b for a, b in zip(keys, keys[1:])), engine


class TestRetentionContract:
    def test_retain_graph_requires_the_trivial_canonicalizer(self):
        spec = get_problem("figure-1-mutex")
        instance = spec.instance("figure-1-mutex(m=3)")
        with pytest.raises(ConfigurationError, match="trivial canonicalizer"):
            explore(
                spec.system(instance),
                spec.invariant,
                reduction="symmetry",
                retain_graph=True,
            )

    def test_graph_is_absent_by_default(self):
        spec = get_problem("figure-1-mutex")
        instance = spec.instance("figure-1-mutex(m=3)")
        result = explore(spec.system(instance), spec.invariant)
        assert result.graph is None

    def test_truncated_walks_retain_an_incomplete_graph(self):
        spec = get_problem("figure-1-mutex")
        instance = spec.instance("figure-1-mutex(m=3)")
        result = explore(
            spec.system(instance),
            spec.invariant,
            max_states=50,
            retain_graph=True,
        )
        assert not result.complete
        assert result.graph is not None and not result.graph.complete

    def test_every_edge_replays_through_the_pure_kernel(self):
        spec = get_problem("figure-1-mutex")
        instance = spec.instance("figure-1-mutex(m=3)")
        system, result = _explore_graph(spec, instance, SerialBackend())
        graph = result.graph
        step = StepInstance.from_system(spec.system(instance))
        checked = 0
        for node in list(graph.iter_nodes())[:200]:
            src = graph.nodes[node]
            for pid, dst in graph.successors(node):
                assert step_value(step, src, pid) == graph.nodes[dst]
                checked += 1
        assert checked > 0

    def test_path_to_replays_to_the_target_state(self):
        spec = get_problem("figure-1-mutex")
        instance = spec.instance("figure-1-mutex(m=3)")
        _, result = _explore_graph(spec, instance, SerialBackend())
        graph = result.graph
        step = StepInstance.from_system(spec.system(instance))
        target = list(graph.iter_nodes())[-1]  # arbitrary but deterministic
        schedule = graph.path_to(target)
        state = graph.nodes[graph.initial]
        for pid in schedule:
            state = step_value(step, state, pid)
        assert state == graph.nodes[target]

    def test_path_to_unreachable_node_raises(self):
        builder = _tiny_builder()
        builder.node(ISOLATED)
        builder.expand(0)
        graph = builder.finish(TINY_DIGESTS, complete=False)
        with pytest.raises(KeyError, match="not reachable"):
            graph.path_to(1)


# A hand-built two-slot graph with no registers: a node int holds slot
# 0's entry index in bit 0 and slot 1's in bit 1; entry 1 is "done"
# (halted).
TINY_ENTRIES = [
    [(101, "idle", False, False), (101, "done", True, False)],
    [(103, "idle", False, False), (103, "done", True, False)],
]
TINY_DIGESTS = PackedDigestTables(
    value_raw=(),
    slot_raw=((b"\x05" * 9, b"\x07" * 9), (b"\x02" * 9, b"\x09" * 9)),
    candidates=(),
)
TINY_LAYOUT = ((0, 1), (1, 1))
INITIAL, LEFT_DONE, RIGHT_DONE, ISOLATED = 0b00, 0b01, 0b10, 0b11


def _tiny_builder():
    return GraphBuilder([], TINY_ENTRIES, INITIAL, TINY_LAYOUT)


class TestSerialisation:
    def _tiny(self, complete=True, right_first=False):
        """initial --101--> LEFT_DONE and initial --103--> RIGHT_DONE;
        LEFT_DONE is terminal, RIGHT_DONE has an inert 101 self-loop.
        ``right_first`` numbers and expands the two successors in the
        other order."""
        builder = _tiny_builder()
        order = (RIGHT_DONE, LEFT_DONE) if right_first else (LEFT_DONE, RIGHT_DONE)
        for packed in order:
            builder.node(packed)
        builder.expand(0)
        builder.edge(0, builder.node(LEFT_DONE))
        builder.edge(1, builder.node(RIGHT_DONE))
        for packed in order:
            node = builder.node(packed)
            builder.expand(node)
            if packed == RIGHT_DONE:
                builder.edge(0, node)
        return builder.finish(TINY_DIGESTS, complete=complete)

    def test_builder_round_trip(self):
        graph = self._tiny()
        left, right = 1, 2
        assert len(graph) == 3
        assert graph.edge_count == 3
        assert graph.successors(0) == ((101, left), (103, right))
        assert graph.successors(right) == ((101, right),)
        assert graph.successor_via(0, 103) == right
        assert graph.successor_via(right, 101) == right  # the self-loop
        assert graph.successor_via(left, 101) is None  # terminal
        assert graph.expanded(left) and graph.successors(left) == ()
        assert graph.nodes[left] == ((), tuple(
            row[index] for row, index in zip(TINY_ENTRIES, (1, 0))
        ))
        assert graph.key(left) == b"\x07" * 9 + b"\x02" * 9
        assert graph.path_to(right) == (103,)

    def test_never_expanded_nodes_have_no_edges(self):
        builder = _tiny_builder()
        builder.expand(0)
        builder.edge(0, builder.node(LEFT_DONE))
        graph = builder.finish(TINY_DIGESTS, complete=False)
        assert not graph.expanded(1)
        assert graph.successors(1) == ()
        assert graph.count[1] == 0

    def test_iter_nodes_orders_by_raw_key(self):
        graph = self._tiny()
        keys = [graph.key(node) for node in graph.iter_nodes()]
        assert keys == sorted(keys)
        assert list(graph.iter_nodes()) == [0, 2, 1]

    def test_to_bytes_encodes_the_completeness_flag(self):
        assert (
            self._tiny(complete=True).to_bytes()
            != self._tiny(complete=False).to_bytes()
        )

    def test_to_bytes_is_stable_under_node_insertion_order(self):
        first = self._tiny()
        second = self._tiny(right_first=True)
        assert first.nodes[1] != second.nodes[1]  # numbered differently
        assert first.to_bytes() == second.to_bytes()
