"""Native (compiled-kernel) backend: gates, degrades, and exact equivalence.

The broad observational-equivalence laws already run against the native
backend through the parametrized suites in ``tests/test_numpy_backend.py``
and ``tests/test_api_conformance.py``.  This module covers what is specific
to the compiled backend:

* availability gating — the ``REPRO_DISABLE_NATIVE`` / ``REPRO_DISABLE_NUMBA``
  escape hatches, and graceful degrade-with-warning when the kernel cannot
  run (so no-toolchain and no-numpy environments stay green);
* the kernel envelope — packed uint64 keys and a uint8 fill table — with
  silent degrade under ``auto`` and a warning on explicit requests;
* the persistent C edge->slot map, including the ``2^64 - 1`` side slot;
* the whole-batch text ingestion path and its fallbacks (non-string node
  IDs, embedded NUL bytes), which must be invisible to every observer:
  queries, node index, serialization, and the hash-once counter;
* snapshots recording the *resolved* backend name, and old snapshots —
  written before the backend field existed, or carrying the retired
  scalar-tail config knob — loading unchanged.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.backends import (
    NUMPY_AVAILABLE,
    resolve_backend_name,
    resolve_counter_backend_name,
)
from repro.core.config import GSSConfig
from repro.core.gss import GSS
from repro.core.merge import merge_sketches
from repro.core.serialization import sketch_from_dict, sketch_to_dict
from repro.hashing.hash_functions import count_key_hashes


def _native_ready() -> bool:
    from repro.core._native import native_available

    return native_available()


requires_native = pytest.mark.skipif(
    not _native_ready(), reason="native kernel unavailable or disabled"
)

CONFIG = dict(matrix_width=16, fingerprint_bits=8, sequence_length=4,
              candidate_buckets=4)


def make(backend: str, **overrides) -> GSS:
    return GSS(GSSConfig(backend=backend, **{**CONFIG, **overrides}))


def stream(count: int = 300, nodes: int = 40):
    return [
        (f"s{(i * 7) % nodes}", f"d{(i * 11 + 3) % nodes}", float(1 + i % 5))
        for i in range(count)
    ]


class TestAvailabilityGates:
    @pytest.mark.parametrize("variable", ["REPRO_DISABLE_NATIVE", "REPRO_DISABLE_NUMBA"])
    def test_escape_hatches_disable_the_kernel(self, monkeypatch, variable):
        from repro.core import _native

        monkeypatch.setenv(variable, "1")
        assert _native.native_disabled()
        assert not _native.native_available()
        assert resolve_backend_name("auto") in ("numpy", "python")

    def test_explicit_native_degrades_with_warning_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        with pytest.warns(RuntimeWarning, match="falling back"):
            sketch = make("native")
        expected = "numpy" if NUMPY_AVAILABLE else "python"
        assert sketch.backend_name == expected
        sketch.update("a", "b", 1.0)
        assert sketch.edge_query("a", "b") == 1.0

    def test_auto_degrades_silently_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NUMBA", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sketch = make("auto")
        assert sketch.backend_name != "native"

    def test_counter_backends_never_take_the_kernel(self):
        assert resolve_counter_backend_name("native") == (
            "numpy" if NUMPY_AVAILABLE else "python"
        )
        assert resolve_counter_backend_name("auto") == (
            "numpy" if NUMPY_AVAILABLE else "python"
        )

    @requires_native
    def test_warm_up_reports_ready(self):
        from repro.core._native import warm_up

        assert warm_up() is True


@requires_native
class TestKernelEnvelope:
    def test_wide_hash_range_degrades_to_numpy_with_warning(self):
        with pytest.warns(RuntimeWarning, match="envelope"):
            sketch = make("native", fingerprint_bits=32)
        assert sketch.backend_name == "numpy"

    def test_many_rooms_degrade_to_numpy_with_warning(self):
        with pytest.warns(RuntimeWarning, match="envelope"):
            sketch = make("native", rooms=255)
        assert sketch.backend_name == "numpy"

    def test_auto_degrades_outside_envelope_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sketch = make("auto", fingerprint_bits=32)
        assert sketch.backend_name in ("numpy", "python")


@requires_native
class TestEdgeSlotMap:
    def test_map_roundtrip_and_len(self):
        sketch = make("native")
        table = sketch._matrix._edge_slot
        assert table.get(123) is None
        assert table.get(123, -7) == -7
        table[123] = 5
        assert table.get(123) == 5
        assert 123 in table
        assert 456 not in table
        assert len(table) == 1
        table.update([(456, 9), (789, -1)])
        assert table.get(456) == 9
        assert table.get(789) == -1
        assert len(table) == 3

    def test_max_uint64_key_side_slot(self):
        sketch = make("native")
        table = sketch._matrix._edge_slot
        sentinel = (1 << 64) - 1
        assert table.get(sentinel) is None
        assert sentinel not in table
        table[sentinel] = 42
        assert table.get(sentinel) == 42
        assert sentinel in table
        assert len(table) == 1

    def test_map_survives_growth(self):
        sketch = make("native")
        table = sketch._matrix._edge_slot
        for key in range(5000):
            table[key] = key * 2
        for key in range(0, 5000, 97):
            assert table.get(key) == key * 2
        assert len(table) == 5000


@requires_native
class TestTextPathEquivalence:
    def assert_equal(self, first: GSS, second: GSS, items) -> None:
        assert first.reconstruct_sketch_edges() == second.reconstruct_sketch_edges()
        assert sorted(first.buffer.edges()) == sorted(second.buffer.edges())
        assert first.matrix_edge_count == second.matrix_edge_count
        nodes = {item[0] for item in items} | {item[1] for item in items}
        for node in nodes:
            assert first.successor_query(node) == second.successor_query(node)
            assert first.precursor_query(node) == second.precursor_query(node)

    def test_string_batches_match_numpy_exactly(self):
        items = stream()
        native = make("native")
        reference = make("numpy")
        for offset in range(0, len(items), 64):
            native.update_many(items[offset : offset + 64])
            reference.update_many(items[offset : offset + 64])
        self.assert_equal(native, reference, items)
        assert set(native.node_index.known_nodes()) == set(
            reference.node_index.known_nodes()
        )
        for node in reference.node_index.known_nodes():
            assert native.node_index.hash_of(node) == reference.node_index.hash_of(node)

    def test_hash_once_counter_matches_numpy(self):
        items = stream()
        counts = {}
        for backend in ("numpy", "native"):
            sketch = make(backend)
            with count_key_hashes() as counter:
                sketch.update_many(items)
                sketch.update_many(items)  # all memoized: no extra hashing
            counts[backend] = counter.count
        assert counts["native"] == counts["numpy"]

    def test_non_string_ids_fall_back_identically(self):
        items = [(i % 9, (i * 5 + 1) % 9, 1.0) for i in range(100)]
        native = make("native")
        reference = make("numpy")
        native.update_many(items)
        reference.update_many(items)
        self.assert_equal(native, reference, items)

    def test_embedded_nul_and_mixed_batches_fall_back_identically(self):
        items = [
            ("a\x00b", "plain", 2.0),
            ("plain", "a\x00b", 1.0),
            ("", "empty-source-ok", 1.5),
            ("héllo", "wörld", 1.0),
            (7, "mixed-types", 1.0),
            ("\x00", "\x00\x00", 3.0),
        ]
        native = make("native")
        reference = make("numpy")
        native.update_many(items)
        reference.update_many(items)
        self.assert_equal(native, reference, items)

    def test_scalar_and_batched_updates_interleave(self):
        items = stream(120)
        native = make("native")
        reference = make("numpy")
        native.update_many(items[:50])
        reference.update_many(items[:50])
        for source, destination, weight in items[50:70]:
            native.update(source, destination, weight)
            reference.update(source, destination, weight)
        native.update_many(items[70:])
        reference.update_many(items[70:])
        self.assert_equal(native, reference, items)


@requires_native
class TestSerializationAndMerge:
    def test_snapshot_records_resolved_backend_name(self):
        sketch = make("auto")
        assert sketch.backend_name == "native"
        sketch.update_many(stream(50))
        document = sketch_to_dict(sketch)
        assert document["config"]["backend"] == "native"
        restored = sketch_from_dict(document)
        assert restored.backend_name == "native"
        assert restored.reconstruct_sketch_edges() == sketch.reconstruct_sketch_edges()

    def test_old_snapshot_without_new_config_keys_loads(self):
        sketch = make("numpy")
        sketch.update_many(stream(50))
        document = sketch_to_dict(sketch)
        # Simulate a snapshot written before the backend field existed.
        del document["config"]["backend"]
        restored = sketch_from_dict(document, backend="native")
        assert restored.backend_name == "native"
        assert restored.reconstruct_sketch_edges() == sketch.reconstruct_sketch_edges()

    def test_mixed_backend_merge_includes_native(self):
        items = stream(240)
        parts = []
        for backend, chunk in zip(
            ("python", "numpy", "native"),
            (items[:80], items[80:160], items[160:]),
        ):
            part = make(backend, seed=5)
            part.update_many(chunk)
            parts.append(part)
        merged = merge_sketches(parts)
        reference = make("native", seed=5)
        reference.update_many(items)
        keys = {(source, destination) for source, destination, _ in items}
        for key in sorted(keys):
            assert merged.edge_query(*key) == reference.edge_query(*key)


class TestScalarTailKnob:
    """The scalar/vector crossover is the constant
    ``NumpyMatrixBackend._SCALAR_TAIL``; it was once a config field."""

    @pytest.mark.skipif(not NUMPY_AVAILABLE, reason="NumPy not installed")
    def test_knob_threads_into_numpy_backend(self, monkeypatch):
        from repro.core.backends import NumpyMatrixBackend

        # 90 items stay under the default tail: the scalar helpers run.
        items = stream(90)
        tailed = make("numpy")
        tailed.update_many(items)
        # Zero disables the scalar tail entirely; results are unaffected.
        monkeypatch.setattr(NumpyMatrixBackend, "_SCALAR_TAIL", 0)
        vectorized = make("numpy")
        vectorized.update_many(items)
        assert tailed.reconstruct_sketch_edges() == vectorized.reconstruct_sketch_edges()

    def test_snapshot_with_retired_knob_restores_identically(self):
        sketch = make("python")
        sketch.update_many(stream(120))
        document = sketch_to_dict(sketch)
        # A snapshot written while the knob was a GSSConfig field.
        document["config"]["scalar_tail_threshold"] = 13
        restored = sketch_from_dict(document)
        assert restored.config == sketch.config
        assert restored.reconstruct_sketch_edges() == sketch.reconstruct_sketch_edges()
        assert sketch_to_dict(restored) == sketch_to_dict(sketch)


class TestCompileFlags:
    """The kernel build is strict by construction, and the sanitize mode
    is a first-class flavor of the same cache."""

    def test_default_flags_are_warning_strict(self):
        from repro.core import _native

        flags = _native.compile_flags()
        assert "-Wall" in flags and "-Wextra" in flags
        assert "-O3" in flags
        assert not any(flag.startswith("-fsanitize") for flag in flags)

    def test_sanitize_mode_selects_asan_ubsan_flags(self, monkeypatch):
        from repro.core import _native

        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "1")
        flags = _native.compile_flags()
        assert "-fsanitize=address,undefined" in flags
        assert "-fno-sanitize-recover=all" in flags
        assert "-Werror" in flags and "-Wall" in flags and "-Wextra" in flags

    def test_flag_flavors_key_separate_cache_entries(self, monkeypatch):
        from repro.core import _native

        default_tag = _native._source_tag()
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "1")
        assert _native._source_tag() != default_tag

    def test_sanitize_without_asan_preload_degrades_cleanly(self, monkeypatch):
        from repro.core import _native

        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "1")
        monkeypatch.delenv("LD_PRELOAD", raising=False)
        # The disable switches have their own tests; clear them so this one
        # reaches the ASan-preload check on every CI leg.
        monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
        monkeypatch.delenv("REPRO_DISABLE_NUMBA", raising=False)
        _native._reset_for_tests()
        try:
            with pytest.raises(_native.NativeUnavailable, match="ASan runtime"):
                _native.load_native()
            assert not _native.native_available()
        finally:
            # Drop the cached failure so later tests re-probe with the
            # default (non-sanitized) flavor.
            _native._reset_for_tests()
