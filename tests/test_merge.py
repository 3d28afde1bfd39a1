"""Tests for merging independently built GSS sketches."""

from __future__ import annotations

import pytest

from repro.core.config import GSSConfig
from repro.core.gss import GSS
from repro.core.merge import compatible_for_merge, merge_into, merge_sketches


def make_config(**overrides) -> GSSConfig:
    defaults = dict(matrix_width=32, sequence_length=4, candidate_buckets=4, seed=7)
    defaults.update(overrides)
    return GSSConfig(**defaults)


class TestCompatibility:
    def test_same_config_is_compatible(self):
        assert compatible_for_merge(make_config(), make_config())

    def test_different_seed_incompatible(self):
        assert not compatible_for_merge(make_config(), make_config(seed=8))

    def test_different_width_incompatible(self):
        assert not compatible_for_merge(make_config(), make_config(matrix_width=64))

    def test_different_fingerprint_bits_incompatible(self):
        assert not compatible_for_merge(make_config(), make_config(fingerprint_bits=12))

    def test_square_hashing_parameters_may_differ(self):
        first = make_config(sequence_length=4, rooms=1)
        second = make_config(sequence_length=8, rooms=2)
        assert compatible_for_merge(first, second)


class TestMergeInto:
    def test_disjoint_edges_are_united(self):
        first = GSS(make_config())
        second = GSS(make_config())
        first.update("a", "b", 2.0)
        second.update("c", "d", 3.0)
        merge_into(first, second)
        assert first.edge_query("a", "b") == pytest.approx(2.0)
        assert first.edge_query("c", "d") == pytest.approx(3.0)

    def test_shared_edges_sum_weights(self):
        first = GSS(make_config())
        second = GSS(make_config())
        first.update("a", "b", 2.0)
        second.update("a", "b", 5.0)
        merge_into(first, second)
        assert first.edge_query("a", "b") == pytest.approx(7.0)

    def test_node_index_is_merged(self):
        first = GSS(make_config())
        second = GSS(make_config())
        second.update("x", "y", 1.0)
        merge_into(first, second)
        assert first.successor_query("x") == {"y"}

    def test_incompatible_merge_raises(self):
        first = GSS(make_config())
        second = GSS(make_config(seed=99))
        second.update("a", "b")
        with pytest.raises(ValueError):
            merge_into(first, second)

    def test_merge_returns_target(self):
        first = GSS(make_config())
        second = GSS(make_config())
        assert merge_into(first, second) is first

    def test_merge_equivalent_to_concatenated_stream(self, small_stream):
        config = make_config(matrix_width=48)
        half = len(small_stream) // 2
        first = GSS(config).ingest(small_stream[:half])
        second = GSS(config).ingest(small_stream[half:])
        merged = merge_into(GSS(config), first)
        merge_into(merged, second)

        whole = GSS(config).ingest(small_stream)
        truth = small_stream.aggregate_weights()
        for key in list(truth)[:80]:
            merged_weight = merged.edge_query(*key)
            whole_weight = whole.edge_query(*key)
            assert merged_weight is not None
            assert merged_weight >= truth[key]
            # Both views saw exactly the same sketch edges, so estimates agree.
            assert merged_weight == pytest.approx(whole_weight)


class TestMergeSketches:
    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            merge_sketches([])

    def test_merges_many(self):
        config = make_config()
        sketches = []
        for index in range(3):
            sketch = GSS(config)
            sketch.update(f"s{index}", f"d{index}", float(index + 1))
            sketches.append(sketch)
        merged = merge_sketches(sketches)
        for index in range(3):
            assert merged.edge_query(f"s{index}", f"d{index}") == pytest.approx(index + 1)

    def test_merge_uses_first_config_by_default(self):
        config = make_config()
        merged = merge_sketches([GSS(config)])
        assert merged.config == config
