"""Unit tests for the undirected GSS wrapper."""

import pytest

from repro.core.config import GSSConfig
from repro.core.undirected import UndirectedGSS, canonical_orientation
from repro.exact.adjacency_list import AdjacencyListGraph
from repro.queries.reachability import is_reachable
from repro.queries.triangle import count_triangles
from repro.streaming.edge import StreamEdge
from repro.streaming.stream import GraphStream


def make_undirected(width=16) -> UndirectedGSS:
    return UndirectedGSS(
        GSSConfig(matrix_width=width, fingerprint_bits=16, sequence_length=4, candidate_buckets=4)
    )


class TestCanonicalOrientation:
    def test_symmetric(self):
        assert canonical_orientation("a", "b") == canonical_orientation("b", "a")

    def test_deterministic(self):
        assert canonical_orientation("x", "m") == ("m", "x")


class TestUndirectedGSS:
    def test_edge_query_is_symmetric(self):
        sketch = make_undirected()
        sketch.update("alice", "bob", 3.0)
        assert sketch.edge_query("alice", "bob") == 3.0
        assert sketch.edge_query("bob", "alice") == 3.0

    def test_weights_accumulate_across_orientations(self):
        sketch = make_undirected()
        sketch.update("alice", "bob", 1.0)
        sketch.update("bob", "alice", 2.0)
        assert sketch.edge_query("alice", "bob") == 3.0

    def test_absent_edge(self):
        sketch = make_undirected()
        sketch.update("a", "b")
        assert sketch.edge_query("c", "d") is None

    def test_neighbor_query_union(self):
        sketch = make_undirected()
        sketch.update("a", "b")
        sketch.update("c", "a")
        assert sketch.neighbor_query("a") == {"b", "c"}
        assert sketch.successor_query("a") == sketch.precursor_query("a")

    def test_degree_weight(self):
        sketch = make_undirected()
        sketch.update("a", "b", 2.0)
        sketch.update("c", "a", 3.0)
        assert sketch.degree_weight("a") == 5.0

    def test_compound_queries_work_on_wrapper(self):
        stream = GraphStream(
            [StreamEdge("a", "b"), StreamEdge("b", "c"), StreamEdge("c", "a"), StreamEdge("c", "d")]
        )
        sketch = make_undirected().ingest(stream)
        assert is_reachable(sketch, "d", "a")  # undirected view: d-c-a
        assert count_triangles(sketch, ["a", "b", "c", "d"]) >= 1

    def test_never_misses_neighbors_on_real_stream(self, small_stream):
        stats = small_stream.statistics()
        config = GSSConfig.for_edge_count(
            stats.distinct_edges, sequence_length=8, candidate_buckets=8
        )
        sketch = UndirectedGSS(config).ingest(small_stream)
        exact = AdjacencyListGraph()
        for edge in small_stream:
            exact.update(edge.source, edge.destination, edge.weight)
        for node in small_stream.nodes()[:80]:
            truth = exact.successor_query(node) | exact.precursor_query(node)
            assert truth <= sketch.neighbor_query(node)

    def test_memory_and_buffer_accessors(self):
        sketch = make_undirected()
        sketch.update("a", "b")
        assert sketch.memory_bytes() > 0
        assert 0.0 <= sketch.buffer_percentage <= 1.0
        assert sketch.config.matrix_width == 16
        assert sketch.sketch.matrix_edge_count == 1
