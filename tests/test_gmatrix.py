"""Unit tests for the gMatrix baseline."""

import pytest

from repro.baselines.gmatrix import GMatrix
from repro.queries.primitives import consume_stream


class TestGMatrix:
    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            GMatrix(width=0)

    def test_edge_query_never_underestimates(self, paper_stream):
        gmatrix = consume_stream(GMatrix(width=32), paper_stream)
        for key, weight in paper_stream.aggregate_weights().items():
            assert gmatrix.edge_query(*key) >= weight

    def test_unknown_nodes_not_found(self):
        gmatrix = GMatrix(width=16)
        gmatrix.update("a", "b")
        assert gmatrix.edge_query("x", "y") is None

    def test_successors_superset_of_truth(self, paper_stream):
        gmatrix = consume_stream(GMatrix(width=64), paper_stream)
        truth = paper_stream.successors()
        for node, successors in truth.items():
            assert successors <= gmatrix.successor_query(node)

    def test_precursors_superset_of_truth(self, paper_stream):
        gmatrix = consume_stream(GMatrix(width=64), paper_stream)
        truth = paper_stream.precursors()
        for node, precursors in truth.items():
            assert precursors <= gmatrix.precursor_query(node)

    def test_unknown_node_has_no_neighbors(self):
        gmatrix = GMatrix(width=16)
        assert gmatrix.successor_query("ghost") == set()
        assert gmatrix.precursor_query("ghost") == set()

    def test_accuracy_far_below_gss_like_tcm(self, small_stream):
        """gMatrix shares TCM's limitation: its hash range is only the matrix
        width, so successor precision is poor compared to a GSS of similar
        matrix size (the paper reports gMatrix as "no better than TCM")."""
        from repro.core.config import GSSConfig
        from repro.core.gss import GSS
        from repro.metrics.accuracy import average_precision

        truth = small_stream.successors()
        nodes = small_stream.nodes()[:60]
        width = 128
        gmatrix = consume_stream(GMatrix(width=width, seed=2), small_stream)
        gss = GSS(
            GSSConfig(matrix_width=36, fingerprint_bits=16, sequence_length=8, candidate_buckets=8)
        )
        gss.ingest(small_stream)

        def precision_of(store):
            return average_precision(
                [(truth.get(node, set()), store.successor_query(node)) for node in nodes]
            )

        gmatrix_precision = precision_of(gmatrix)
        gss_precision = precision_of(gss)
        assert gmatrix_precision < 0.8
        assert gss_precision > gmatrix_precision + 0.15

    def test_node_out_weight(self, paper_stream):
        gmatrix = consume_stream(GMatrix(width=64), paper_stream)
        truth = paper_stream.node_out_weights()
        for node, weight in truth.items():
            assert gmatrix.node_out_weight(node) >= weight

    def test_memory_and_update_count(self, paper_stream):
        gmatrix = consume_stream(GMatrix(width=10), paper_stream)
        assert gmatrix.memory_bytes() == 400
        assert gmatrix.update_count == len(paper_stream)
