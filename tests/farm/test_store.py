"""Differential tests: the disk graph store vs the in-RAM StateGraph.

The load-bearing property is byte-identity —
``DiskStateGraph.to_bytes()`` must equal the source graph's
``StateGraph.to_bytes()`` exactly, for complete and truncated walks
alike — because verification digests and the farm's resume-identity
guarantee are both defined over those bytes.
"""

import hashlib

import pytest

from repro.errors import FarmError
from repro.farm import (
    DiskGraphWriter,
    DiskStateGraph,
    load_state_graph,
    write_state_graph,
)
from repro.problems import get_problem
from repro.runtime.exploration import explore, mutual_exclusion_invariant


def retained_graph(max_states=None):
    spec = get_problem("figure-1-mutex")
    instance = spec.instance("figure-1-mutex(m=3)")
    kwargs = {"max_states": max_states} if max_states else {}
    result = explore(
        spec.system(instance),
        mutual_exclusion_invariant,
        retain_graph=True,
        **kwargs,
    )
    assert result.graph is not None
    return result.graph


@pytest.fixture(scope="module")
def graph():
    return retained_graph()


@pytest.fixture()
def disk(graph, tmp_path):
    write_state_graph(graph, tmp_path / "store")
    with load_state_graph(tmp_path / "store") as handle:
        yield handle


class TestByteIdentity:
    def test_complete_graph_round_trips_byte_identically(self, graph, disk):
        assert disk.to_bytes() == graph.to_bytes()

    def test_digest_matches_sha256_of_source_bytes(self, graph, disk):
        assert disk.digest() == hashlib.sha256(graph.to_bytes()).hexdigest()

    def test_truncated_graph_round_trips_byte_identically(self, tmp_path):
        truncated = retained_graph(max_states=100)
        assert not truncated.complete
        write_state_graph(truncated, tmp_path / "t")
        with load_state_graph(tmp_path / "t") as handle:
            assert not handle.complete
            assert handle.to_bytes() == truncated.to_bytes()


class TestReadApi:
    def test_counts_and_completeness(self, graph, disk):
        assert len(disk) == len(graph)
        assert disk.edge_count == graph.edge_count
        assert disk.complete is True
        assert disk.initial == graph.key(graph.initial)

    def test_iter_nodes_is_sorted_and_equal(self, graph, disk):
        keys = [graph.key(node) for node in graph.iter_nodes()]
        assert list(disk.iter_nodes()) == keys == sorted(keys)

    def test_successors_agree_on_every_node(self, graph, disk):
        for node in graph.iter_nodes():
            assert disk.successors(graph.key(node)) == tuple(
                (pid, graph.key(dst)) for pid, dst in graph.successors(node)
            )

    def test_successors_of_unknown_key_empty(self, disk, graph):
        assert disk.successors(b"\x00" * len(graph.key(graph.initial))) == ()

    def test_contains(self, graph, disk):
        initial = graph.key(graph.initial)
        assert initial in disk
        assert b"\xff" * len(initial) not in disk

    def test_expanded_flags(self, graph, disk):
        for node in graph.iter_nodes():
            assert disk.expanded(graph.key(node)) == graph.expanded(node)

    def test_truncated_frontier_reads_as_never_expanded(self, tmp_path):
        truncated = retained_graph(max_states=100)
        frontier = [
            node for node in range(len(truncated)) if not truncated.expanded(node)
        ]
        assert frontier
        write_state_graph(truncated, tmp_path / "t")
        with load_state_graph(tmp_path / "t") as handle:
            for node in frontier:
                assert not handle.expanded(truncated.key(node))
                assert handle.successors(truncated.key(node)) == ()


class TestWriterContract:
    def test_key_length_enforced(self, tmp_path):
        writer = DiskGraphWriter(tmp_path / "s", key_len=4)
        writer.add_node(b"\x01\x02\x03\x04")
        with pytest.raises(FarmError, match="key_len"):
            writer.add_node(b"\x01\x02")

    def test_non_contiguous_edges_rejected(self, tmp_path):
        writer = DiskGraphWriter(tmp_path / "s", key_len=1)
        writer.add_edge(b"a", 11, b"b")
        writer.add_edge(b"b", 11, b"a")
        with pytest.raises(FarmError, match="non-contiguously"):
            writer.add_edge(b"a", 13, b"b")

    def test_finalize_requires_known_initial(self, tmp_path):
        writer = DiskGraphWriter(tmp_path / "s", key_len=1)
        writer.add_node(b"a")
        with pytest.raises(FarmError, match="initial"):
            writer.finalize(b"z", complete=True)

    def test_double_finalize_rejected(self, tmp_path):
        writer = DiskGraphWriter(tmp_path / "s", key_len=1)
        writer.add_node(b"a")
        writer.finalize(b"a", complete=True)
        with pytest.raises(FarmError, match="twice"):
            writer.finalize(b"a", complete=True)

    def test_unfinalized_store_is_unreadable(self, tmp_path):
        writer = DiskGraphWriter(tmp_path / "s", key_len=1)
        writer.add_node(b"a")
        writer.close()
        writer.close()  # idempotent
        # no finalize: the directory must read as "not a store", which
        # is what a worker killed mid-verify-cell leaves behind.
        with pytest.raises(FarmError, match="finalize"):
            DiskStateGraph(tmp_path / "s")

    @staticmethod
    def closed(writer):
        return writer._nodes.closed and writer._edges.closed

    def test_finalize_closes_its_files_even_when_it_raises(self, tmp_path):
        writer = DiskGraphWriter(tmp_path / "s", key_len=1)
        writer.add_node(b"a")
        with pytest.raises(FarmError, match="initial"):
            writer.finalize(b"z", complete=True)
        assert self.closed(writer)

    def test_a_broken_write_closes_the_writer(self, tmp_path):
        writer = DiskGraphWriter(tmp_path / "s", key_len=4)
        with pytest.raises(FarmError, match="key_len"):
            writer.add_node(b"\x01")
        assert self.closed(writer)

    @pytest.mark.parametrize("end", ["broken-write", "close"])
    def test_a_closed_writer_is_never_finalized(self, end, tmp_path):
        writer = DiskGraphWriter(tmp_path / "s", key_len=1)
        writer.add_node(b"a")
        if end == "close":
            writer.close()
        else:
            with pytest.raises(FarmError, match="key_len"):
                writer.add_node(b"toolong")
            # A caller that swallows the error and writes on gets the
            # closed file's refusal; the key must not reach an index.
            with pytest.raises(ValueError):
                writer.add_node(b"b")
        with pytest.raises(FarmError, match="closed before finalize"):
            writer.finalize(b"a", complete=True)
        assert sorted(p.name for p in (tmp_path / "s").iterdir()) == [
            "edges.bin", "nodes.bin"
        ]
        with pytest.raises(FarmError, match="finalize"):
            DiskStateGraph(tmp_path / "s")

    def test_the_context_manager_closes_the_writer(self, tmp_path):
        with DiskGraphWriter(tmp_path / "s", key_len=1) as writer:
            writer.add_node(b"a")
        assert self.closed(writer)

    def test_write_state_graph_closes_the_writer_when_a_write_raises(
        self, tmp_path, monkeypatch
    ):
        import repro.farm.store as store

        writers = []

        class FailingWriter(DiskGraphWriter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                writers.append(self)

            def add_edge(self, src, pid, dst):
                raise OSError("disk full")

        monkeypatch.setattr(store, "DiskGraphWriter", FailingWriter)
        with pytest.raises(OSError, match="disk full"):
            write_state_graph(retained_graph(), tmp_path / "s")
        (writer,) = writers
        assert self.closed(writer)

    def test_single_node_graph(self, tmp_path):
        writer = DiskGraphWriter(tmp_path / "s", key_len=2)
        writer.add_node(b"aa")
        writer.mark_expanded(b"aa")  # terminal but expanded
        writer.finalize(b"aa", complete=True)
        with load_state_graph(tmp_path / "s") as handle:
            assert len(handle) == 1
            assert handle.edge_count == 0
            assert handle.successors(b"aa") == ()
            assert handle.expanded(b"aa")
