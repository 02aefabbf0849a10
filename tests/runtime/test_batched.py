"""Unit tests for the batched packed-state core's primitives.

The integration surface (verdict/counter/graph identity against the
serial walk) is pinned by ``test_backends.py`` and
``test_parallel_differential.py``; here the individual pieces are
tested in isolation: the batch successor API, the batch digest API,
the shared-memory visited table, and the honest
``visited_table_full`` truncation path.
"""

import pytest

from repro.core.mutex import AnonymousMutex
from repro.errors import ExplorationLimitExceeded
from repro.runtime.backends import ParallelBackend
from repro.runtime.canonical import TrivialCanonicalizer, build_canonicalizer
from repro.runtime.compiled import compile_program
from repro.runtime.exploration import explore, mutual_exclusion_invariant
from repro.runtime.kernel import StepInstance
from repro.runtime.system import System
from repro.runtime.visited import (
    PROBE_LIMIT,
    SharedVisitedTable,
    VisitedTableFull,
    table_capacity,
)

from tests.conftest import pids


def mutex_system(m=3):
    return System(AnonymousMutex(m=m, cs_visits=1), pids(2), record_trace=False)


def compiled_program(system):
    return compile_program(
        StepInstance.from_system(system), system.scheduler.capture_state()
    )


def bfs_states(program, limit=200):
    """A deterministic sample of reachable packed states."""
    stride = len(program.initial_packed)
    seen = {program.initial_packed}
    frontier = [program.initial_packed]
    while frontier and len(seen) < limit:
        batch = []
        for state in frontier:
            batch.extend(state)
        children, edges = program.expand_batch(batch)
        frontier = []
        for base in range(0, len(children), stride):
            child = tuple(children[base : base + stride])
            if child not in seen:
                seen.add(child)
                frontier.append(child)
        del edges
    return sorted(seen)


class TestExpandBatch:
    def test_matches_step_packed_edge_for_edge(self):
        program = compiled_program(mutex_system())
        states = bfs_states(program)
        stride = len(program.initial_packed)
        flat = []
        for state in states:
            flat.extend(state)
        children, edges = program.expand_batch(flat)
        live = program.live_tables()
        ci = 0
        expected_edges = []
        for src, state in enumerate(states):
            for _pid, s, off in program.step_order:
                if not live[s][state[off]]:
                    continue
                child = program.step_packed(state, s)
                inert = 1 if child == state else 0
                expected_edges.extend((src, s, inert))
                if not inert:
                    got = tuple(children[ci * stride : (ci + 1) * stride])
                    assert got == child, (src, s)
                    ci += 1
        assert list(edges) == expected_edges
        assert ci * stride == len(children)

    def test_batch_of_one_equals_batch_of_many(self):
        program = compiled_program(mutex_system())
        states = bfs_states(program, limit=40)
        flat = []
        for state in states:
            flat.extend(state)
        children, edges = program.expand_batch(flat)
        singly_children = []
        singly_edges = []
        for src, state in enumerate(states):
            one_children, one_edges = program.expand_batch(list(state))
            singly_children.extend(one_children)
            for base in range(0, len(one_edges), 3):
                assert one_edges[base] == 0  # src index within its batch
                singly_edges.extend((src, one_edges[base + 1],
                                     one_edges[base + 2]))
        assert list(children) == singly_children
        assert list(edges) == singly_edges


class TestBatchDigests:
    @pytest.mark.parametrize("builder", [
        lambda system: TrivialCanonicalizer(system.scheduler),
        build_canonicalizer,
    ], ids=["trivial", "symmetry"])
    def test_batch_equals_singles(self, builder):
        system = mutex_system()
        program = compiled_program(system)
        # Digest tables over the whole closure, as the parallel backend
        # builds them.
        program.close()
        canonicalizer = builder(system)
        tables = canonicalizer.packed_digest_tables(
            program.values, program.states, program.halted, program.crashed
        )
        states = bfs_states(program, limit=60)
        m = program.m
        flat = []
        for state in states:
            flat.extend(state)
        batched = tables.batch_keys(flat, m)
        singles = [tables.batch_keys(state, m)[0] for state in states]
        assert batched == singles
        raw_batched = tables.batch_raw(flat, m)
        raw_singles = [tables.batch_raw(state, m)[0] for state in states]
        assert raw_batched == raw_singles
        # raw is injective on the sample; canonical quotients it.
        assert len(set(raw_batched)) == len(states)
        assert len({c for c, _ in batched}) <= len(states)


class TestTableCapacity:
    def test_clamps_and_doubles(self):
        assert table_capacity(1) == 1 << 12
        assert table_capacity(3_000) == 8_192  # 2x budget, power of two
        assert table_capacity(10**9) == 1 << 24
        for budget in (1, 17, 4_096, 500_000):
            capacity = table_capacity(budget)
            assert capacity & (capacity - 1) == 0


class TestSharedVisitedTable:
    def test_insert_contains_duplicate(self):
        table = SharedVisitedTable.create(4_096, "repro_vt_test_basic")
        try:
            assert table.insert(12345) is True
            assert table.insert(12345) is False
            assert 12345 in table
            assert 99999 not in table
            # The zero digest is remapped onto the sentinel's neighbour.
            assert table.insert(0) is True
            assert 0 in table and 1 in table
            assert table.insert(1) is False
        finally:
            table.close()
            table.unlink()

    def test_attach_sees_creator_writes(self):
        table = SharedVisitedTable.create(4_096, "repro_vt_test_attach")
        try:
            table.insert(777)
            other = SharedVisitedTable.attach("repro_vt_test_attach", 4_096)
            try:
                assert 777 in other
                assert other.insert(777) is False
                other.insert(888)
                assert 888 in table
            finally:
                other.close()
        finally:
            table.close()
            table.unlink()

    def test_overflow_raises_not_drops(self):
        capacity = 1_024
        table = SharedVisitedTable.create(capacity, "repro_vt_test_full")
        try:
            with pytest.raises(VisitedTableFull):
                # Distinct digests eventually exhaust a PROBE_LIMIT run.
                mask = (1 << 64) - 1
                for digest in range(1, capacity + PROBE_LIMIT + 2):
                    table.insert((digest * 0x9E3779B97F4A7C15) & mask)
        finally:
            table.close()
            table.unlink()

    def test_rejects_non_power_of_two_without_leaking(self):
        import pathlib

        with pytest.raises(ValueError):
            SharedVisitedTable.create(1_000, "repro_vt_test_bad")
        # The rejected create must not have allocated the segment.
        assert not pathlib.Path("/dev/shm/repro_vt_test_bad").exists()


class TestVisitedTableFullTruncation:
    """A too-small table truncates honestly instead of dropping states."""

    def test_truncated_by_visited_table_full(self):
        system = mutex_system(m=5)  # 14_673 states >> 1_024 slots
        result = explore(
            system,
            mutual_exclusion_invariant,
            canonicalizer=TrivialCanonicalizer(system.scheduler),
            backend=ParallelBackend(workers=2, table_capacity=1_024),
            max_states=500_000,
            max_depth=1_000_000,
        )
        assert result.truncated_by == "visited_table_full"
        assert not result.complete
        assert result.ok  # no violation was found in the explored part
        assert 0 < result.states_explored < 14_673

    def test_raise_on_truncation_fires(self):
        system = mutex_system(m=5)
        with pytest.raises(ExplorationLimitExceeded):
            explore(
                system,
                mutual_exclusion_invariant,
                canonicalizer=TrivialCanonicalizer(system.scheduler),
                backend=ParallelBackend(workers=2, table_capacity=1_024),
                max_states=500_000,
                max_depth=1_000_000,
                raise_on_truncation=True,
            )
