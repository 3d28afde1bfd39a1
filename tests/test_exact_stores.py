"""Unit tests for the exact adjacency-list and adjacency-matrix stores."""

import pytest

from repro.exact.adjacency_list import AdjacencyListGraph
from repro.exact.adjacency_matrix import AdjacencyMatrixGraph
from repro.queries.primitives import consume_stream


@pytest.fixture(params=[AdjacencyListGraph, AdjacencyMatrixGraph])
def store_class(request):
    return request.param


class TestExactStoresSharedBehaviour:
    def test_missing_edge_is_not_found(self, store_class):
        store = store_class()
        assert store.edge_query("a", "b") is None

    def test_weights_accumulate(self, store_class):
        store = store_class()
        store.update("a", "b", 2.0)
        store.update("a", "b", 3.0)
        assert store.edge_query("a", "b") == 5.0

    def test_direction_matters(self, store_class):
        store = store_class()
        store.update("a", "b", 1.0)
        assert store.edge_query("b", "a") is None

    def test_successors_and_precursors(self, store_class):
        store = store_class()
        store.update("a", "b")
        store.update("a", "c")
        store.update("d", "a")
        assert store.successor_query("a") == {"b", "c"}
        assert store.precursor_query("a") == {"d"}
        assert store.successor_query("zzz") == set()

    def test_matches_stream_ground_truth(self, store_class, paper_stream):
        store = consume_stream(store_class(), paper_stream)
        truth = paper_stream.aggregate_weights()
        for key, weight in truth.items():
            assert store.edge_query(*key) == weight
        assert store.successor_query("a") == paper_stream.successors()["a"]
        assert store.precursor_query("f") == paper_stream.precursors()["f"]


class TestAdjacencyListSpecifics:
    def test_counts(self, paper_stream):
        store = consume_stream(AdjacencyListGraph(), paper_stream)
        assert store.edge_count == 11
        assert store.node_count == 7
        assert len(store.edges()) == 11
        assert store.nodes() == set("abcdefg")

    def test_degrees(self, paper_stream):
        store = consume_stream(AdjacencyListGraph(), paper_stream)
        assert store.out_degree("a") == 5
        assert store.in_degree("f") == 3
        assert store.out_degree("unknown") == 0

    def test_node_weights(self, paper_stream):
        store = consume_stream(AdjacencyListGraph(), paper_stream)
        truth = paper_stream.node_out_weights()
        assert store.node_out_weight("a") == truth["a"]
        assert store.node_in_weight("f") == sum(
            w for (s, d), w in paper_stream.aggregate_weights().items() if d == "f"
        )

    def test_deletion_removes_edge(self):
        store = AdjacencyListGraph()
        store.update("a", "b", 3.0)
        store.update("a", "b", -3.0)
        assert store.edge_query("a", "b") is None
        assert store.edge_count == 0
        assert store.successor_query("a") == set()

    def test_partial_deletion_keeps_edge(self):
        store = AdjacencyListGraph()
        store.update("a", "b", 3.0)
        store.update("a", "b", -1.0)
        assert store.edge_query("a", "b") == 2.0


class TestAdjacencyMatrixSpecifics:
    def test_counts(self, paper_stream):
        store = consume_stream(AdjacencyMatrixGraph(), paper_stream)
        assert store.node_count == 7
        assert store.edge_count == 11

    def test_zero_weight_cell_removed(self):
        store = AdjacencyMatrixGraph()
        store.update("a", "b", 2.0)
        store.update("a", "b", -2.0)
        assert store.edge_query("a", "b") is None
