"""Pluggable matrix-storage backends for the Graph Stream Sketch.

:class:`~repro.core.gss.GSS` owns the hashing, the left-over buffer, the
reverse node index and the query API; *where the matrix rooms live* is the
backend's business.  Three observationally identical implementations are
provided:

* :class:`PythonMatrixBackend` — the original occupancy-indexed layout:
  nested room lists per bucket, per-row/per-column occupancy sets and an
  O(1) room map.  Zero dependencies; the default.
* :class:`NumpyMatrixBackend` — columnar storage: one contiguous array per
  room field (fingerprint pairs, index pairs, weights) plus a per-bucket
  fill table and an edge-to-slot map.  Batch updates run through the
  vectorized hashing pipeline of :mod:`repro.hashing.vectorized`, and
  neighbor scans / reconstruction are whole-array operations.
* :class:`NativeMatrixBackend` — the numpy layout with the whole per-batch
  aggregate/classify/place pipeline (including the inherently sequential
  first-seen contention loop) compiled to a C kernel
  (:mod:`repro.core._native`).  A batch crosses the Python/kernel boundary
  once; only buffer spills come back to Python.

Equivalence is not accidental — it is load-bearing.  Both backends place
every sketch edge in exactly the same room (or buffer entry), because:

* an edge's candidate probe order is a pure function of its fingerprints;
* buckets only ever fill up, never empty, so "the first candidate bucket
  with a free room" is stable over time;
* a room's key ``(row, column, f_s, f_d, i_s, i_d)`` can only be produced
  by one sketch edge (the addresses and fingerprints together determine
  ``H(s)`` and ``H(d)``, Theorem 1), so an edge that has been placed — or
  has overflowed to the buffer — keeps that fate forever.

The last point is what lets the NumPy backend replace the room map with a
per-*edge* slot map and lets it skip per-candidate room lookups entirely for
edges it has already seen.  ``tests/test_numpy_backend.py`` drives both
backends through random streams (deletions, buffer overflow, serialization,
merges) and asserts the results match item-for-item.

While an obs registry is active (:func:`repro.obs.trace.active`; otherwise
a batch costs one ``is None`` check), every batched ingest observes each of
its stages once into ``repro_ingest_stage_seconds{stage}``:

* ``hashing`` — node IDs to packed edge keys, node-memo upkeep included;
* ``placement`` — aggregation, edge classification and the bucket-probe /
  contention walk (one kernel call on the native backend);
* ``buffer_spill`` — moving edges that found no room into the left-over
  buffer;
* ``memo`` — pair-cache upkeep (numpy update path).

Stages are disjoint — a nested stage is subtracted from its container — so
they sum to at most the ingest time.  The pure-Python backend reports only
``hashing`` and ``placement`` (its spill is interleaved with placement), and
hash-level ingest (``ingest_hashed``) has no hashing stage to report.
"""

from __future__ import annotations

import ctypes
import warnings
import weakref
from bisect import insort
from itertools import chain, repeat as _repeat
from time import perf_counter
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.config import GSSConfig
from repro.hashing.hash_functions import _FNV_OFFSET, _count_hashes, _splitmix64
from repro.hashing.linear_congruence import recover_address
from repro.hashing.vectorized import (
    NUMPY_AVAILABLE,
    address_sequences,
    candidate_pair_arrays,
    lcg_values_at,
    load_numpy,
    node_hashes_array,
)
from repro.obs.trace import active as obs_active, stage_histogram

#: Lazily bound NumPy module (populated by the first NumpyMatrixBackend), so
#: pure-Python sketches never pay the NumPy import cost.
np = None

# A room is a mutable 5-slot list: [f_s, f_d, i_s, i_d, weight].
ROOM_SOURCE_FP = 0
ROOM_DEST_FP = 1
ROOM_SOURCE_INDEX = 2
ROOM_DEST_INDEX = 3
ROOM_WEIGHT = 4

#: ``edge_slot`` value marking an edge that overflowed to the left-over buffer.
_BUFFERED = -1
#: Sentinel for "edge not seen yet" in batch lookups (never a valid slot).
_UNSEEN = -2
#: Pair-cache miss marker for packed uint64 edge keys.  Only the very last
#: key of a maximal 2^32 hash range can collide with it, in which case that
#: one edge is merely re-resolved each batch (a pure perf detail).
_KEY_SENTINEL = (1 << 64) - 1


def _native_usable() -> bool:
    """Whether the compiled placement kernel can run here (lazy probe)."""
    if not NUMPY_AVAILABLE:
        return False
    from repro.core._native import native_available

    return native_available()


def resolve_backend_name(requested: str) -> str:
    """Resolve a configured backend name to the one actually used.

    ``auto`` prefers native -> numpy -> python, taking the fastest backend
    the machine can actually run.  Explicit requests degrade down the same
    chain with a warning when their prerequisites (a C toolchain and numpy
    for ``native``, numpy for ``numpy``) are missing, so a sketch — or a
    serialized snapshot produced on a better-equipped machine — keeps
    working everywhere.
    """
    if requested == "auto":
        if _native_usable():
            return "native"
        return "numpy" if NUMPY_AVAILABLE else "python"
    if requested == "native" and not _native_usable():
        fallback = "numpy" if NUMPY_AVAILABLE else "python"
        warnings.warn(
            "GSSConfig.backend='native' but the compiled placement kernel is "
            f"unavailable here; falling back to the {fallback} matrix backend",
            RuntimeWarning,
            stacklevel=3,
        )
        return fallback
    if requested == "numpy" and not NUMPY_AVAILABLE:
        warnings.warn(
            "GSSConfig.backend='numpy' but NumPy is not installed; "
            "falling back to the pure-Python matrix backend",
            RuntimeWarning,
            stacklevel=3,
        )
        return "python"
    return requested


def resolve_counter_backend_name(requested: str) -> str:
    """Resolve a backend name for plain counter-array structures (baselines).

    The compiled kernel is GSS-placement-specific; counter sketches (TCM,
    GMatrix, CM) have only python/numpy storage, so ``native`` — explicit or
    via ``auto`` — means ``numpy`` to them (their fastest available), with
    the usual degrade-with-warning when NumPy itself is missing.
    """
    if requested == "auto":
        return "numpy" if NUMPY_AVAILABLE else "python"
    if requested == "native":
        requested = "numpy"
    return resolve_backend_name(requested)


def make_backend(sketch) -> "PythonMatrixBackend":
    """Instantiate the matrix backend selected by ``sketch.config.backend``."""
    name = resolve_backend_name(sketch.config.backend)
    if name == "native":
        config = sketch.config
        # The kernel packs H(s) * M + H(d) into uint64 and counts bucket fill
        # in uint8; configs outside that envelope run the numpy backend
        # instead (same results, just not compiled).
        if config.hash_range > (1 << 32) or config.rooms >= 255:
            if config.backend == "native":
                warnings.warn(
                    "GSSConfig.backend='native' but this config is outside "
                    "the compiled kernel's envelope (needs hash_range <= 2^32 "
                    "and rooms < 255); using the numpy matrix backend",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return NumpyMatrixBackend(sketch)
        return NativeMatrixBackend(sketch)
    if name == "numpy":
        return NumpyMatrixBackend(sketch)
    return PythonMatrixBackend(sketch)


class PythonMatrixBackend:
    """Occupancy-indexed nested-list matrix storage (the zero-dependency default).

    Per-row and per-column occupancy sets record which buckets hold at least
    one room, and a room map keyed by ``(row, column, fingerprints, indices)``
    gives O(1) room lookups, so scans cost O(stored edges) rather than
    O(r * m) matrix slots.
    """

    name = "python"

    def __init__(self, sketch) -> None:
        self._sketch = sketch
        self._width = sketch.config.matrix_width
        # One slot per bucket; a bucket is lazily created as a list of rooms.
        self._buckets: List[Optional[List[List]]] = [None] * (self._width * self._width)
        self.matrix_edge_count = 0
        # Occupancy indexes: which columns of each row (and rows of each
        # column) hold at least one room, kept as ascending sorted lists so
        # scans need no per-query sort.  Buckets never empty out, so the
        # indexes only grow and stay exact without any eviction logic.
        self._row_occupancy: Dict[int, List[int]] = {}
        self._col_occupancy: Dict[int, List[int]] = {}
        # Fingerprint-bucketed room map: (row, column, f_s, f_d, i_s, i_d) ->
        # the room list itself, for O(1) aggregation and edge queries.
        self._room_map: Dict[Tuple[int, int, int, int, int, int], List] = {}

    # -- room bookkeeping --------------------------------------------------

    def bucket_at(self, row: int, column: int) -> Optional[List[List]]:
        return self._buckets[row * self._width + column]

    def _ensure_bucket(self, row: int, column: int) -> List[List]:
        position = row * self._width + column
        bucket = self._buckets[position]
        if bucket is None:
            bucket = []
            self._buckets[position] = bucket
        return bucket

    def register_room(self, row: int, column: int, room: List) -> None:
        """Store one room and keep every matrix index in sync.

        All room insertions — updates, merges, deserialization — must go
        through here so the occupancy sets and the room map stay exact.
        """
        bucket = self._ensure_bucket(row, column)
        bucket.append(room)
        self._room_map[
            (
                row,
                column,
                room[ROOM_SOURCE_FP],
                room[ROOM_DEST_FP],
                room[ROOM_SOURCE_INDEX],
                room[ROOM_DEST_INDEX],
            )
        ] = room
        if len(bucket) == 1:
            # First room in this bucket: the bucket just became occupied.
            insort(self._row_occupancy.setdefault(row, []), column)
            insort(self._col_occupancy.setdefault(column, []), row)
        self.matrix_edge_count += 1

    def occupied_buckets(self) -> Iterator[Tuple[int, int, List[List]]]:
        """Yield ``(row, column, bucket)`` for every non-empty bucket.

        Iteration is row-major (ascending row, then column), matching a full
        matrix scan, but only touches occupied positions.
        """
        for row in sorted(self._row_occupancy):
            for column in self._row_occupancy[row]:
                bucket = self.bucket_at(row, column)
                if bucket:
                    yield row, column, bucket

    # -- updates -----------------------------------------------------------

    def insert_edge(self, source_hash: int, destination_hash: int, weight: float) -> None:
        """Insert (or aggregate) one edge of the graph sketch ``Gh``."""
        sketch = self._sketch
        _, source_fp = sketch._split(source_hash)
        _, destination_fp = sketch._split(destination_hash)
        source_addresses = sketch._addresses(source_hash)
        destination_addresses = sketch._addresses(destination_hash)
        rooms_per_bucket = sketch.config.rooms
        room_map = self._room_map

        for source_index, destination_index in sketch._candidate_pairs(
            source_fp, destination_fp
        ):
            row = source_addresses[source_index]
            column = destination_addresses[destination_index]
            stored_source_index = source_index + 1
            stored_destination_index = destination_index + 1
            room = room_map.get(
                (row, column, source_fp, destination_fp, stored_source_index, stored_destination_index)
            )
            if room is not None:
                room[ROOM_WEIGHT] += weight
                return
            bucket = self.bucket_at(row, column)
            if bucket is None or len(bucket) < rooms_per_bucket:
                self.register_room(
                    row,
                    column,
                    [
                        source_fp,
                        destination_fp,
                        stored_source_index,
                        stored_destination_index,
                        weight,
                    ],
                )
                return
        sketch._buffer.add(source_hash, destination_hash, weight)

    def update_many(self, items: Iterable[Tuple[Hashable, Hashable, float]]) -> int:
        """Batched ingestion: hash once per distinct node, insert once per edge."""
        sketch = self._sketch
        hasher = sketch._hasher
        node_index = sketch._node_index
        registry = obs_active()
        started = perf_counter() if registry is not None else 0.0
        hashes: Dict[Hashable, int] = {}
        aggregated: Dict[Tuple[int, int], float] = {}
        count = 0
        for source, destination, weight in items:
            count += 1
            source_hash = hashes.get(source)
            if source_hash is None:
                source_hash = hashes[source] = hasher(source)
                if node_index is not None:
                    node_index.record(source, source_hash)
            destination_hash = hashes.get(destination)
            if destination_hash is None:
                destination_hash = hashes[destination] = hasher(destination)
                if node_index is not None:
                    node_index.record(destination, destination_hash)
            key = (source_hash, destination_hash)
            aggregated[key] = aggregated.get(key, 0.0) + weight
        hashed_at = perf_counter() if registry is not None else 0.0
        for (source_hash, destination_hash), weight in aggregated.items():
            self.insert_edge(source_hash, destination_hash, weight)
        if registry is not None:
            # Buffer spill is interleaved inside insert_edge on this backend,
            # so it is accounted under placement.
            stage_histogram(registry, "hashing").observe(hashed_at - started)
            stage_histogram(registry, "placement").observe(perf_counter() - hashed_at)
        return count

    def update_many_by_hash(self, edges: Iterable[Tuple[int, int, float]]) -> int:
        """Batched hash-level ingestion (merge/replay paths)."""
        aggregated: Dict[Tuple[int, int], float] = {}
        count = 0
        for source_hash, destination_hash, weight in edges:
            count += 1
            key = (source_hash, destination_hash)
            aggregated[key] = aggregated.get(key, 0.0) + weight
        for (source_hash, destination_hash), weight in aggregated.items():
            self.insert_edge(source_hash, destination_hash, weight)
        return count

    def ingest_hashed(self, batch) -> int:
        """Ingest a :class:`~repro.streaming.batch.HashedBatch`'s hash columns.

        The hash-once path: no hashing happens here — the batch's
        precomputed columns run through the same aggregate-then-insert loop
        as :meth:`update_many_by_hash`, so placement is identical to every
        other ingest route.  The node index is the sketch's business.
        """
        registry = obs_active()
        started = perf_counter() if registry is not None else 0.0
        aggregated: Dict[Tuple[int, int], float] = {}
        count = 0
        for source_hash, destination_hash, weight in zip(
            batch.source_hash_list(), batch.destination_hash_list(), batch.weight_list()
        ):
            count += 1
            key = (source_hash, destination_hash)
            aggregated[key] = aggregated.get(key, 0.0) + weight
        for (source_hash, destination_hash), weight in aggregated.items():
            self.insert_edge(source_hash, destination_hash, weight)
        if registry is not None:
            stage_histogram(registry, "placement").observe(perf_counter() - started)
        return count

    # -- queries -----------------------------------------------------------

    def matrix_edge_weight(self, source_hash: int, destination_hash: int) -> Optional[float]:
        """Weight of the edge's matrix room, or ``None`` when not in the matrix."""
        sketch = self._sketch
        _, source_fp = sketch._split(source_hash)
        _, destination_fp = sketch._split(destination_hash)
        source_addresses = sketch._addresses(source_hash)
        destination_addresses = sketch._addresses(destination_hash)
        room_map = self._room_map

        for source_index, destination_index in sketch._candidate_pairs(
            source_fp, destination_fp
        ):
            room = room_map.get(
                (
                    source_addresses[source_index],
                    destination_addresses[destination_index],
                    source_fp,
                    destination_fp,
                    source_index + 1,
                    destination_index + 1,
                )
            )
            if room is not None:
                return room[ROOM_WEIGHT]
        return None

    def matrix_neighbor_hashes(self, node_hash: int, forward: bool) -> Set[int]:
        """Scan ``r`` rows (or columns) for matrix edges touching ``node_hash``.

        Uses the occupancy indexes: only buckets that actually hold rooms are
        visited, so the cost is proportional to the occupancy of the node's
        ``r`` rows/columns instead of ``r * m`` matrix slots.  The left-over
        buffer is the caller's business.
        """
        sketch = self._sketch
        _, fingerprint = sketch._split(node_hash)
        addresses = sketch._addresses(node_hash)
        found: Set[int] = set()
        width = self._width
        occupancy = self._row_occupancy if forward else self._col_occupancy

        own_fp_slot = ROOM_SOURCE_FP if forward else ROOM_DEST_FP
        own_index_slot = ROOM_SOURCE_INDEX if forward else ROOM_DEST_INDEX
        other_fp_slot = ROOM_DEST_FP if forward else ROOM_SOURCE_FP
        other_index_slot = ROOM_DEST_INDEX if forward else ROOM_SOURCE_INDEX

        for position, address in enumerate(addresses):
            expected_index = position + 1
            occupied = occupancy.get(address)
            if not occupied:
                continue
            for offset in occupied:
                if forward:
                    bucket = self.bucket_at(address, offset)
                else:
                    bucket = self.bucket_at(offset, address)
                if bucket is None:
                    continue
                for room in bucket:
                    if room[own_fp_slot] != fingerprint:
                        continue
                    if room[own_index_slot] != expected_index:
                        continue
                    other_fp = room[other_fp_slot]
                    other_index = room[other_index_slot]
                    if sketch.config.square_hashing:
                        other_base = recover_address(
                            offset, other_fp, other_index, width, sketch._lcg
                        )
                    else:
                        other_base = offset
                    found.add(other_base * sketch._fingerprint_range + other_fp)
        return found

    def reconstruct(self) -> List[Tuple[int, int, float]]:
        """Recover every matrix edge as ``(H(s), H(d), weight)`` triples.

        The scan walks the occupancy indexes in row-major order, so it costs
        O(stored edges) and yields the same sequence a full matrix scan would.
        """
        sketch = self._sketch
        edges: List[Tuple[int, int, float]] = []
        width = self._width
        fingerprint_range = sketch._fingerprint_range
        for row, column, bucket in self.occupied_buckets():
            for room in bucket:
                source_fp = room[ROOM_SOURCE_FP]
                destination_fp = room[ROOM_DEST_FP]
                if sketch.config.square_hashing:
                    source_base = recover_address(
                        row, source_fp, room[ROOM_SOURCE_INDEX], width, sketch._lcg
                    )
                    destination_base = recover_address(
                        column, destination_fp, room[ROOM_DEST_INDEX], width, sketch._lcg
                    )
                else:
                    source_base = row
                    destination_base = column
                edges.append(
                    (
                        source_base * fingerprint_range + source_fp,
                        destination_base * fingerprint_range + destination_fp,
                        room[ROOM_WEIGHT],
                    )
                )
        return edges


class NumpyMatrixBackend:
    """Columnar NumPy matrix storage with vectorized batch updates.

    Rooms live in parallel growable arrays (struct-of-arrays layout): row and
    column, the fingerprint pair, the index pair and the weight, one entry
    per room in insertion order.  Three side structures keep updates O(1):

    * ``_bucket_fill`` — rooms per bucket, a plain Python list because it is
      only touched by the sequential placement loop;
    * ``_edge_slot`` — packed sketch-edge key -> room slot (or ``-1`` for
      edges that overflowed to the buffer).  Because an edge's placement is
      permanent (see the module docstring), this replaces the per-room map
      of the Python backend and short-circuits every repeat update;
    * ``matrix_edge_count`` — mirrors ``_size``.

    ``update_many`` computes node hashes, hash splits, address sequences and
    candidate pairs for the whole batch as array operations; only the
    placement of *previously unseen* edges runs in a (cheap, precomputed)
    Python loop, because placement order determines who wins the last room
    of a contended bucket and must match the Python backend exactly.
    """

    name = "numpy"

    _INITIAL_CAPACITY = 1024
    #: Cap on the persistent node -> hash memo.  Past the cap, unseen nodes
    #: are still hashed (and re-hashed) correctly, just without caching, so a
    #: long-running process cannot grow without bound.
    _NODE_CACHE_LIMIT = 1 << 20
    #: Batch tails with at most this many new edges (or unknown items) run
    #: through the scalar helpers instead of the array pipeline — fixed
    #: per-call NumPy overhead beats vectorization on tiny inputs, and the
    #: scalar path shares the address/candidate memos, so it is cheap and —
    #: by construction — placement-identical.  Micro-calibrated on the
    #: Table I streams: the scalar/vector crossover sits in the 64–128 range,
    #: flat to within measurement noise, and 96 is the midpoint that
    #: measured best overall (see BENCH_tab1.json).
    _SCALAR_TAIL = 96

    def __init__(self, sketch) -> None:
        if not NUMPY_AVAILABLE:  # pragma: no cover - guarded by make_backend
            raise RuntimeError("NumpyMatrixBackend requires NumPy")
        global np
        if np is None:
            np = load_numpy()
        self._sketch = sketch
        config = sketch.config
        self._width = config.matrix_width
        self._fingerprint_range = config.fingerprint_range
        self._hash_range = config.hash_range
        # Packed uint64 edge keys need H(s) * M + H(d) < 2**64.
        self._packed_keys = self._hash_range <= (1 << 32)
        capacity = self._INITIAL_CAPACITY
        self._rows = np.zeros(capacity, dtype=np.int64)
        self._cols = np.zeros(capacity, dtype=np.int64)
        self._src_fp = np.zeros(capacity, dtype=np.int64)
        self._dst_fp = np.zeros(capacity, dtype=np.int64)
        self._src_idx = np.zeros(capacity, dtype=np.int64)
        self._dst_idx = np.zeros(capacity, dtype=np.int64)
        self._weights = np.zeros(capacity, dtype=np.float64)
        self._size = 0
        self._bucket_fill: List[int] = [0] * (self._width * self._width)
        self._edge_slot: Dict = {}
        self._node_hash_cache: Dict[Hashable, int] = {}
        # (source, destination) original-ID pair -> packed edge key, so batch
        # updates resolve repeat edges with one dict probe per item.  Only
        # used in packed-key mode; resolving a pair the first time goes
        # through the node-hash cache (which also feeds the reverse index).
        self._pair_key_cache: Dict[Tuple[Hashable, Hashable], int] = {}
        self.matrix_edge_count = 0

    # -- storage plumbing --------------------------------------------------

    def _edge_key(self, source_hash: int, destination_hash: int):
        if self._packed_keys:
            return source_hash * self._hash_range + destination_hash
        return (source_hash, destination_hash)

    def _ensure_capacity(self, extra: int) -> None:
        needed = self._size + extra
        capacity = len(self._weights)
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        for attribute in ("_rows", "_cols", "_src_fp", "_dst_fp", "_src_idx", "_dst_idx", "_weights"):
            old = getattr(self, attribute)
            grown = np.zeros(capacity, dtype=old.dtype)
            grown[: self._size] = old[: self._size]
            setattr(self, attribute, grown)

    def _append_rooms(self, rooms: List[Tuple[int, int, int, int, int, int, float]]) -> None:
        """Bulk-append staged rooms: (row, col, f_s, f_d, i_s, i_d, weight)."""
        if not rooms:
            return
        rows, cols, src_fp, dst_fp, src_idx, dst_idx, weights = zip(*rooms)
        self._append_room_arrays(rows, cols, src_fp, dst_fp, src_idx, dst_idx, weights)

    def _append_room_arrays(
        self, rows, cols, src_fp, dst_fp, src_idx, dst_idx, weights
    ) -> None:
        """Column-wise bulk append of ``len(rows)`` rooms."""
        count = len(rows)
        if not count:
            return
        self._ensure_capacity(count)
        start = self._size
        stop = start + count
        self._rows[start:stop] = rows
        self._cols[start:stop] = cols
        self._src_fp[start:stop] = src_fp
        self._dst_fp[start:stop] = dst_fp
        self._src_idx[start:stop] = src_idx
        self._dst_idx[start:stop] = dst_idx
        self._weights[start:stop] = weights
        self._size = stop
        self.matrix_edge_count += count

    def bucket_at(self, row: int, column: int) -> Optional[List[List]]:
        """Materialize one bucket's rooms (diagnostic/reference path only)."""
        n = self._size
        if n == 0:
            return None
        mask = (self._rows[:n] == row) & (self._cols[:n] == column)
        slots = np.nonzero(mask)[0]
        if not len(slots):
            return None
        return [
            [
                int(self._src_fp[slot]),
                int(self._dst_fp[slot]),
                int(self._src_idx[slot]),
                int(self._dst_idx[slot]),
                float(self._weights[slot]),
            ]
            for slot in slots
        ]

    def register_room(self, row: int, column: int, room: List) -> None:
        """Append one room (deserialization/restore path) and index its edge."""
        source_fp, destination_fp, source_index, destination_index, weight = room
        sketch = self._sketch
        if sketch.config.square_hashing:
            source_base = recover_address(
                row, source_fp, source_index, self._width, sketch._lcg
            )
            destination_base = recover_address(
                column, destination_fp, destination_index, self._width, sketch._lcg
            )
        else:
            source_base = row
            destination_base = column
        source_hash = source_base * self._fingerprint_range + source_fp
        destination_hash = destination_base * self._fingerprint_range + destination_fp
        self._edge_slot[self._edge_key(source_hash, destination_hash)] = self._size
        self._bucket_fill[row * self._width + column] += 1
        self._append_rooms(
            [(row, column, source_fp, destination_fp, source_index, destination_index, weight)]
        )

    def occupied_buckets(self) -> Iterator[Tuple[int, int, List[List]]]:
        """Yield ``(row, column, bucket)`` row-major, rooms in insertion order."""
        n = self._size
        if n == 0:
            return
        order = np.lexsort((self._cols[:n], self._rows[:n]))
        rows = self._rows[order].tolist()
        cols = self._cols[order].tolist()
        src_fp = self._src_fp[order].tolist()
        dst_fp = self._dst_fp[order].tolist()
        src_idx = self._src_idx[order].tolist()
        dst_idx = self._dst_idx[order].tolist()
        weights = self._weights[order].tolist()
        bucket: List[List] = []
        current: Optional[Tuple[int, int]] = None
        for position in range(n):
            coordinates = (rows[position], cols[position])
            if coordinates != current:
                if bucket:
                    yield current[0], current[1], bucket
                bucket = []
                current = coordinates
            bucket.append(
                [src_fp[position], dst_fp[position], src_idx[position], dst_idx[position], weights[position]]
            )
        if bucket:
            yield current[0], current[1], bucket

    # -- updates -----------------------------------------------------------

    def insert_edge(self, source_hash: int, destination_hash: int, weight: float) -> None:
        """Scalar insert: edge-slot fast path, then candidate probing."""
        key = self._edge_key(source_hash, destination_hash)
        slot = self._edge_slot.get(key)
        if slot is not None:
            if slot >= 0:
                self._weights[slot] += weight
            else:
                self._sketch._buffer.add(source_hash, destination_hash, weight)
            return
        sketch = self._sketch
        _, source_fp = sketch._split(source_hash)
        _, destination_fp = sketch._split(destination_hash)
        source_addresses = sketch._addresses(source_hash)
        destination_addresses = sketch._addresses(destination_hash)
        rooms_per_bucket = sketch.config.rooms
        fill = self._bucket_fill
        width = self._width
        for source_index, destination_index in sketch._candidate_pairs(
            source_fp, destination_fp
        ):
            row = source_addresses[source_index]
            column = destination_addresses[destination_index]
            position = row * width + column
            if fill[position] < rooms_per_bucket:
                fill[position] += 1
                self._edge_slot[key] = self._size
                self._append_rooms(
                    [
                        (
                            row,
                            column,
                            source_fp,
                            destination_fp,
                            source_index + 1,
                            destination_index + 1,
                            weight,
                        )
                    ]
                )
                return
        self._edge_slot[key] = _BUFFERED
        self._sketch._buffer.add(source_hash, destination_hash, weight)

    def update_many(self, items: Iterable[Tuple[Hashable, Hashable, float]]) -> int:
        """Vectorized batch ingestion over original node identifiers."""
        triples = items if isinstance(items, list) else list(items)
        if not triples:
            return 0
        count = len(triples)
        registry = obs_active()
        started = perf_counter() if registry is not None else 0.0
        memo = 0.0
        sources, destinations, weights = zip(*triples)
        weight_array = np.asarray(weights, dtype=np.float64)
        if not self._packed_keys:
            source_hashes, destination_hashes = self._node_hashes_for(
                sources, destinations
            )
            if registry is not None:
                stage_histogram(registry, "hashing").observe(perf_counter() - started)
            self._ingest_hash_pairs(source_hashes, destination_hashes, weight_array)
            return count
        # Packed-key fast path: one dict probe per item resolves repeat
        # edges; only first-seen pairs go through node hashing.
        pair_cache = self._pair_key_cache
        keys = np.fromiter(
            map(pair_cache.get, zip(sources, destinations), _repeat(_KEY_SENTINEL)),
            dtype=np.uint64,
            count=count,
        )
        unknown = keys == _KEY_SENTINEL
        if unknown.any():
            unknown_positions = np.nonzero(unknown)[0].tolist()
            if len(unknown_positions) <= self._SCALAR_TAIL:
                self._resolve_pairs_scalar(sources, destinations, unknown_positions, keys)
            else:
                unknown_sources = [sources[position] for position in unknown_positions]
                unknown_destinations = [
                    destinations[position] for position in unknown_positions
                ]
                source_hashes, destination_hashes = self._node_hashes_for(
                    unknown_sources, unknown_destinations
                )
                resolved = source_hashes * np.uint64(self._hash_range) + destination_hashes
                keys[unknown] = resolved
                if len(pair_cache) < self._NODE_CACHE_LIMIT:
                    memo_started = perf_counter() if registry is not None else 0.0
                    pair_cache.update(
                        zip(zip(unknown_sources, unknown_destinations), resolved.tolist())
                    )
                    if registry is not None:
                        memo = perf_counter() - memo_started
        if registry is not None:
            stage_histogram(registry, "memo").observe(memo)
            stage_histogram(registry, "hashing").observe(perf_counter() - started - memo)
        self._ingest_keys(keys, weight_array)
        return count

    def _resolve_pairs_scalar(self, sources, destinations, positions, keys) -> None:
        """Scalar-tail key resolution for a few unknown pairs.

        Hashes through the node memo (falling back to the scalar hasher for
        genuinely new nodes, which also registers them in the reverse index)
        and writes packed keys straight into ``keys``.
        """
        sketch = self._sketch
        cache = self._node_hash_cache
        pair_cache = self._pair_key_cache
        hasher = sketch._hasher
        node_index = sketch._node_index
        hash_range = self._hash_range
        node_limit = len(cache) < self._NODE_CACHE_LIMIT
        pair_limit = len(pair_cache) < self._NODE_CACHE_LIMIT
        for position in positions:
            source = sources[position]
            destination = destinations[position]
            source_hash = cache.get(source)
            if source_hash is None:
                source_hash = hasher(source)
                if node_index is not None:
                    node_index.record(source, source_hash)
                if node_limit:
                    cache[source] = source_hash
            destination_hash = cache.get(destination)
            if destination_hash is None:
                destination_hash = hasher(destination)
                if node_index is not None:
                    node_index.record(destination, destination_hash)
                if node_limit:
                    cache[destination] = destination_hash
            key = source_hash * hash_range + destination_hash
            keys[position] = key
            if pair_limit:
                pair_cache[(source, destination)] = key

    def _node_hashes_for(self, sources, destinations):
        """Hash two aligned node-ID sequences through the node memo.

        Registers first-ever-seen nodes in the reverse index, in first-seen
        interleaved (source, destination) order — the order the scalar path
        records them.  A pair that reaches this resolver always contains the
        first batch occurrence of any genuinely new node, because the pair
        cache can only hold pairs whose nodes were resolved before.
        """
        sketch = self._sketch
        count = len(sources)
        cache = self._node_hash_cache
        distinct = dict.fromkeys(chain.from_iterable(zip(sources, destinations)))
        missing = [node for node in distinct if node not in cache]
        if missing:
            hashed = node_hashes_array(
                missing, self._hash_range, sketch.config.seed
            ).tolist()
            node_index = sketch._node_index
            if node_index is not None:
                for node, node_hash in zip(missing, hashed):
                    node_index.record(node, node_hash)
            if len(cache) < self._NODE_CACHE_LIMIT:
                cache.update(zip(missing, hashed))
                lookup = cache
            else:
                # Cache is at capacity: resolve this batch through a private
                # overlay so correctness never depends on cache admission.
                lookup = {node: cache[node] for node in distinct if node in cache}
                lookup.update(zip(missing, hashed))
        else:
            lookup = cache
        hashes = np.fromiter(
            map(lookup.__getitem__, chain(sources, destinations)),
            dtype=np.uint64,
            count=2 * count,
        )
        return hashes[:count], hashes[count:]

    def update_many_by_hash(self, edges: Iterable[Tuple[int, int, float]]) -> int:
        """Vectorized batch ingestion over sketch hashes (merge/replay)."""
        triples = edges if isinstance(edges, list) else list(edges)
        if not triples:
            return 0
        count = len(triples)
        sources, destinations, weights = zip(*triples)
        source_hashes = np.fromiter(sources, dtype=np.uint64, count=count)
        destination_hashes = np.fromiter(destinations, dtype=np.uint64, count=count)
        weight_array = np.asarray(weights, dtype=np.float64)
        if self._packed_keys:
            self._ingest_keys(
                source_hashes * np.uint64(self._hash_range) + destination_hashes,
                weight_array,
            )
        else:
            self._ingest_hash_pairs(source_hashes, destination_hashes, weight_array)
        return count

    def ingest_hashed(self, batch) -> int:
        """Ingest a :class:`~repro.streaming.batch.HashedBatch`'s hash columns.

        The columns are consumed as arrays directly (zero-copy when the batch
        was built on the vectorized path); placement runs through the exact
        machinery of :meth:`update_many_by_hash`.
        """
        count = len(batch)
        if count == 0:
            return 0
        source_hashes = np.asarray(batch.source_hashes, dtype=np.uint64)
        destination_hashes = np.asarray(batch.destination_hashes, dtype=np.uint64)
        weight_array = np.asarray(batch.weights, dtype=np.float64)
        if self._packed_keys:
            self._ingest_keys(
                source_hashes * np.uint64(self._hash_range) + destination_hashes,
                weight_array,
            )
        else:
            self._ingest_hash_pairs(source_hashes, destination_hashes, weight_array)
        return count

    def _ingest_keys(self, keys, weights) -> None:
        """Aggregate a batch of packed edge keys and route edges to rooms/buffer.

        Mirrors the scalar semantics exactly: edges are pre-aggregated
        (bincount accumulates in stream order, like the scalar batch dict),
        previously placed edges become one vectorized weight scatter,
        previously buffered edges go back to the buffer, and unseen edges run
        through the sequential placement loop in first-seen order — the only
        ordering that is observable, because it decides same-batch bucket
        contention and buffer-entry creation.
        """
        registry = obs_active()
        started = perf_counter() if registry is not None else 0.0
        spill = 0.0
        unique_keys, first_index, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        sums = np.bincount(
            inverse.reshape(-1), weights=weights, minlength=len(first_index)
        )
        key_list = unique_keys.tolist()
        edge_slot = self._edge_slot
        slots = np.fromiter(
            map(edge_slot.get, key_list, _repeat(_UNSEEN)),
            dtype=np.int64,
            count=len(key_list),
        )
        placed = slots >= 0
        if placed.any():
            # Unique edges map to unique slots, so fancy indexing (not
            # np.add.at) is safe and cheap.  Order is irrelevant here: each
            # room gets exactly one aggregated addition.
            self._weights[slots[placed]] += sums[placed]
        hash_range = np.uint64(self._hash_range)
        buffered = slots == _BUFFERED
        if buffered.any():
            # These edges already own their buffer entries, so add order
            # cannot affect buffer iteration order.
            spill_started = perf_counter() if registry is not None else 0.0
            buffer = self._sketch._buffer
            source_hashes, destination_hashes = np.divmod(
                unique_keys[buffered], hash_range
            )
            for source_hash, destination_hash, weight in zip(
                source_hashes.tolist(),
                destination_hashes.tolist(),
                sums[buffered].tolist(),
            ):
                buffer.add(source_hash, destination_hash, weight)
            if registry is not None:
                spill = perf_counter() - spill_started
        unseen = slots == _UNSEEN
        if unseen.any():
            # First-seen order decides who wins contended rooms; restore it
            # for just this subset.
            order = np.argsort(first_index[unseen], kind="stable")
            unseen_keys = unique_keys[unseen][order]
            source_hashes, destination_hashes = np.divmod(unseen_keys, hash_range)
            unseen_sums = sums[unseen][order]
            unseen_key_list = unseen_keys.tolist()
            if len(unseen_keys) <= self._SCALAR_TAIL:
                self._place_new_edges_scalar(
                    source_hashes.tolist(),
                    destination_hashes.tolist(),
                    unseen_sums.tolist(),
                    unseen_key_list,
                )
            else:
                overflowed = self._place_new_edges(
                    source_hashes, destination_hashes, unseen_sums, unseen_key_list
                )
                if overflowed:
                    spill_started = perf_counter() if registry is not None else 0.0
                    self._spill_new_edges(
                        overflowed,
                        source_hashes,
                        destination_hashes,
                        unseen_sums,
                        unseen_key_list,
                    )
                    if registry is not None:
                        spill += perf_counter() - spill_started
        if registry is not None:
            stage_histogram(registry, "buffer_spill").observe(spill)
            stage_histogram(registry, "placement").observe(
                perf_counter() - started - spill
            )

    def _ingest_hash_pairs(self, source_hashes, destination_hashes, weights) -> None:
        """Ingest fallback for hash ranges too large to pack into uint64.

        Same structure as :meth:`_ingest_keys`, with 2-column row uniqueness
        and tuple edge keys.
        """
        pairs = np.stack((source_hashes, destination_hashes), axis=1)
        unique_pairs, first_index, inverse = np.unique(
            pairs, axis=0, return_index=True, return_inverse=True
        )
        sums = np.bincount(
            inverse.reshape(-1), weights=weights, minlength=len(first_index)
        )
        order = np.argsort(first_index, kind="stable")
        ordered_sources = unique_pairs[order, 0]
        ordered_destinations = unique_pairs[order, 1]
        ordered_sums = sums[order]
        key_list = [tuple(pair) for pair in unique_pairs[order].tolist()]
        edge_slot = self._edge_slot
        slots = np.fromiter(
            map(edge_slot.get, key_list, _repeat(_UNSEEN)),
            dtype=np.int64,
            count=len(key_list),
        )
        placed = slots >= 0
        if placed.any():
            self._weights[slots[placed]] += ordered_sums[placed]
        buffered = slots == _BUFFERED
        if buffered.any():
            buffer = self._sketch._buffer
            for source_hash, destination_hash, weight in zip(
                ordered_sources[buffered].tolist(),
                ordered_destinations[buffered].tolist(),
                ordered_sums[buffered].tolist(),
            ):
                buffer.add(source_hash, destination_hash, weight)
        unseen = slots == _UNSEEN
        if unseen.any():
            new_sources = ordered_sources[unseen]
            new_destinations = ordered_destinations[unseen]
            new_sums = ordered_sums[unseen]
            new_keys = [key for key, new in zip(key_list, unseen.tolist()) if new]
            overflowed = self._place_new_edges(
                new_sources, new_destinations, new_sums, new_keys
            )
            if overflowed:
                self._spill_new_edges(
                    overflowed, new_sources, new_destinations, new_sums, new_keys
                )

    def _place_new_edges_scalar(
        self,
        source_hashes: List[int],
        destination_hashes: List[int],
        sums: List[float],
        keys: List,
    ) -> None:
        """Scalar-tail placement for small unseen batches.

        Probes candidates exactly like :meth:`insert_edge`, sharing the
        sketch's address/candidate memos (warm across batches), and stages
        rooms for one bulk array append.  Placement-identical to the
        vectorized path by construction — both walk the same candidate order
        over the same fill table.
        """
        sketch = self._sketch
        split = sketch._split
        addresses = sketch._addresses
        candidate_pairs = sketch._candidate_pairs
        rooms_per_bucket = sketch.config.rooms
        width = self._width
        fill = self._bucket_fill
        edge_slot = self._edge_slot
        buffer = sketch._buffer
        base_slot = self._size
        staged: List[Tuple[int, int, int, int, int, int, float]] = []
        for source_hash, destination_hash, weight, key in zip(
            source_hashes, destination_hashes, sums, keys
        ):
            _, source_fp = split(source_hash)
            _, destination_fp = split(destination_hash)
            source_addresses = addresses(source_hash)
            destination_addresses = addresses(destination_hash)
            for source_index, destination_index in candidate_pairs(
                source_fp, destination_fp
            ):
                row = source_addresses[source_index]
                column = destination_addresses[destination_index]
                position = row * width + column
                if fill[position] < rooms_per_bucket:
                    fill[position] += 1
                    edge_slot[key] = base_slot + len(staged)
                    staged.append(
                        (
                            row,
                            column,
                            source_fp,
                            destination_fp,
                            source_index + 1,
                            destination_index + 1,
                            weight,
                        )
                    )
                    break
            else:
                edge_slot[key] = _BUFFERED
                buffer.add(source_hash, destination_hash, weight)
        self._append_rooms(staged)

    def _place_new_edges(
        self, source_hashes, destination_hashes, sums, keys
    ) -> List[int]:
        """Place previously unseen edges, probing candidates in order.

        All hashing-derived quantities — fingerprints, address sequences,
        candidate pairs, bucket positions — are computed for the whole batch
        as array operations; the remaining loop only walks precomputed lists
        and touches ``_bucket_fill``.  A new edge cannot collide with any
        existing room (a room key determines its edge), so the probe only
        needs bucket fill counts, never room lookups.

        Returns the positions of the edges that found no free room, in
        first-seen order; the caller hands them to :meth:`_spill_new_edges`.
        """
        sketch = self._sketch
        config = sketch.config
        width = self._width
        fingerprint_range = self._fingerprint_range
        count = len(keys)
        source_bases = (source_hashes // np.uint64(fingerprint_range)).astype(np.int64)
        source_fps = (source_hashes % np.uint64(fingerprint_range)).astype(np.int64)
        destination_bases = (destination_hashes // np.uint64(fingerprint_range)).astype(np.int64)
        destination_fps = (destination_hashes % np.uint64(fingerprint_range)).astype(np.int64)

        if config.square_hashing:
            sequence_length = config.sequence_length
            # One LCG run covers both endpoints: concatenate, iterate, split.
            both_addresses = address_sequences(
                np.concatenate((source_bases, destination_bases)),
                np.concatenate((source_fps, destination_fps)),
                sequence_length,
                width,
                sketch._lcg,
            )
            source_addresses = both_addresses[:count]
            destination_addresses = both_addresses[count:]
            if config.sampling:
                row_indices, column_indices = candidate_pair_arrays(
                    source_fps,
                    destination_fps,
                    config.candidate_buckets,
                    sequence_length,
                    sketch._lcg,
                )
            else:
                grid = np.arange(sequence_length * sequence_length, dtype=np.int64)
                row_indices = np.broadcast_to(grid // sequence_length, (count, len(grid)))
                column_indices = np.broadcast_to(grid % sequence_length, (count, len(grid)))
        else:
            source_addresses = (source_bases % width)[:, None]
            destination_addresses = (destination_bases % width)[:, None]
            row_indices = np.zeros((count, 1), dtype=np.int64)
            column_indices = np.zeros((count, 1), dtype=np.int64)

        rows = np.take_along_axis(source_addresses, row_indices, axis=1)
        columns = np.take_along_axis(destination_addresses, column_indices, axis=1)
        positions = (rows * width + columns).tolist()

        # The loop below decides, for every edge in first-seen order, which
        # probe wins — the only part of placement that is inherently
        # sequential (it is what resolves same-batch bucket contention).  It
        # walks precomputed position lists and records (edge, probe) winners;
        # slot numbers, room fields and buffer spills are then committed in
        # bulk.  Probe 0 almost always wins, so it is special-cased ahead of
        # the general probe walk.
        rooms_per_bucket = config.rooms
        probe_count = len(positions[0]) if count else 0
        fill = self._bucket_fill
        placed_edges: List[int] = []
        placed_probes: List[int] = []
        overflowed: List[int] = []
        placed_append = placed_edges.append
        probes_append = placed_probes.append
        for edge in range(count):
            row = positions[edge]
            position = row[0]
            if fill[position] < rooms_per_bucket:
                fill[position] = fill[position] + 1
                placed_append(edge)
                probes_append(0)
                continue
            for probe in range(1, probe_count):
                position = row[probe]
                if fill[position] < rooms_per_bucket:
                    fill[position] = fill[position] + 1
                    placed_append(edge)
                    probes_append(probe)
                    break
            else:
                overflowed.append(edge)

        edge_slot = self._edge_slot
        if placed_edges:
            base_slot = self._size
            edge_slot.update(
                zip(
                    [keys[edge] for edge in placed_edges],
                    range(base_slot, base_slot + len(placed_edges)),
                )
            )
            edge_array = np.asarray(placed_edges, dtype=np.int64)
            probe_array = np.asarray(placed_probes, dtype=np.int64)
            self._append_room_arrays(
                rows[edge_array, probe_array],
                columns[edge_array, probe_array],
                source_fps[edge_array],
                destination_fps[edge_array],
                row_indices[edge_array, probe_array] + 1,
                column_indices[edge_array, probe_array] + 1,
                sums[edge_array],
            )
        return overflowed

    def _spill_new_edges(
        self, overflowed, source_hashes, destination_hashes, sums, keys
    ) -> None:
        """Send the edges :meth:`_place_new_edges` could not place to the
        left-over buffer, in first-seen order (this order creates buffer
        entries and is observable)."""
        buffer = self._sketch._buffer
        self._edge_slot.update(
            zip([keys[edge] for edge in overflowed], _repeat(_BUFFERED))
        )
        spilled = np.asarray(overflowed, dtype=np.int64)
        for source_hash, destination_hash, weight in zip(
            source_hashes[spilled].tolist(),
            destination_hashes[spilled].tolist(),
            sums[spilled].tolist(),
        ):
            buffer.add(source_hash, destination_hash, weight)

    # -- queries -----------------------------------------------------------

    def matrix_edge_weight(self, source_hash: int, destination_hash: int) -> Optional[float]:
        """Weight of the edge's matrix room, or ``None`` when not in the matrix."""
        slot = self._edge_slot.get(self._edge_key(source_hash, destination_hash))
        if slot is None or slot < 0:
            return None
        return float(self._weights[slot])

    def matrix_neighbor_hashes(self, node_hash: int, forward: bool) -> Set[int]:
        """Vectorized neighbor scan over the columnar room arrays."""
        n = self._size
        if n == 0:
            return set()
        sketch = self._sketch
        _, fingerprint = sketch._split(node_hash)
        addresses = sketch._addresses(node_hash)
        if forward:
            own_positions = self._rows[:n]
            own_fp = self._src_fp[:n]
            own_idx = self._src_idx[:n]
            other_positions = self._cols[:n]
            other_fp = self._dst_fp[:n]
            other_idx = self._dst_idx[:n]
        else:
            own_positions = self._cols[:n]
            own_fp = self._dst_fp[:n]
            own_idx = self._dst_idx[:n]
            other_positions = self._rows[:n]
            other_fp = self._src_fp[:n]
            other_idx = self._src_idx[:n]
        mask = np.zeros(n, dtype=bool)
        for position, address in enumerate(addresses):
            mask |= (own_positions == address) & (own_idx == position + 1)
        mask &= own_fp == fingerprint
        if not mask.any():
            return set()
        matched_fp = other_fp[mask]
        if sketch.config.square_hashing:
            offsets = lcg_values_at(matched_fp, other_idx[mask], sketch._lcg)
            bases = (other_positions[mask] - offsets) % self._width
        else:
            bases = other_positions[mask]
        return set((bases * self._fingerprint_range + matched_fp).tolist())

    def reconstruct(self) -> List[Tuple[int, int, float]]:
        """Vectorized matrix-edge recovery, row-major like a full scan."""
        n = self._size
        if n == 0:
            return []
        sketch = self._sketch
        order = np.lexsort((self._cols[:n], self._rows[:n]))
        rows = self._rows[order]
        cols = self._cols[order]
        src_fp = self._src_fp[order]
        dst_fp = self._dst_fp[order]
        if sketch.config.square_hashing:
            source_bases = (rows - lcg_values_at(src_fp, self._src_idx[order], sketch._lcg)) % self._width
            destination_bases = (cols - lcg_values_at(dst_fp, self._dst_idx[order], sketch._lcg)) % self._width
        else:
            source_bases = rows
            destination_bases = cols
        fingerprint_range = self._fingerprint_range
        return list(
            zip(
                (source_bases * fingerprint_range + src_fp).tolist(),
                (destination_bases * fingerprint_range + dst_fp).tolist(),
                self._weights[order].tolist(),
            )
        )


class _NativeEdgeSlotMap:
    """Dict facade over the kernel's persistent C edge->slot table.

    Exposes exactly the mapping surface the inherited scalar paths use —
    ``get``, item assignment, ``update``, ``len``, containment — so
    ``insert_edge``, ``register_room`` and ``matrix_edge_weight`` work
    unchanged against kernel-owned state.  The C side stores ``-2`` for
    missing keys; this facade translates that back to the caller's default.
    """

    __slots__ = ("_ctx", "_map_get", "_map_put", "_map_len")

    def __init__(self, lib, ctx) -> None:
        self._ctx = ctx
        self._map_get = lib.gss_map_get
        self._map_put = lib.gss_map_put
        self._map_len = lib.gss_map_len

    def get(self, key, default=None):
        value = self._map_get(self._ctx, key)
        return default if value == _UNSEEN else value

    def __setitem__(self, key, value) -> None:
        if self._map_put(self._ctx, key, value) != 0:
            raise MemoryError("native edge-slot table allocation failed")

    def __contains__(self, key) -> bool:
        return self._map_get(self._ctx, key) != _UNSEEN

    def __len__(self) -> int:
        return self._map_len(self._ctx)

    def update(self, pairs) -> None:
        for key, value in pairs:
            self[key] = value


class NativeMatrixBackend(NumpyMatrixBackend):
    """Columnar storage with the batch pipeline compiled to a C kernel.

    Storage is the numpy backend's struct-of-arrays layout — every query,
    scan, merge and serialization path is inherited verbatim.  What changes
    is batched ingestion: aggregation, edge classification and the
    first-seen-order bucket-probe/contention loop all run inside one
    ``gss_ingest_batch`` call (:mod:`repro.core._native`), so a batch crosses
    the Python/kernel boundary exactly once.  Only buffer traffic comes back
    out, as (key, aggregated weight) arrays, because the left-over buffer is
    an exact structure with Python dict semantics.

    The kernel owns exactly one piece of state: the persistent edge->slot
    map (a C open-addressing table, wrapped by :class:`_NativeEdgeSlotMap`
    for the inherited scalar paths).  Room arrays and the bucket-fill table
    stay Python-owned numpy arrays that the kernel writes through pointers —
    ``_bucket_fill`` becomes a uint8 array instead of a list so both sides
    can touch it.

    Construction compiles/binds the kernel, so building a store *is* the
    warm-up; every benchmark harness in this repo constructs stores outside
    timed regions.  ``make_backend`` guards the envelope: packed uint64 keys
    (``hash_range <= 2^32``) and ``rooms < 255`` (uint8 fill), degrading to
    the numpy backend otherwise.
    """

    name = "native"

    def __init__(self, sketch) -> None:
        super().__init__(sketch)
        if not self._packed_keys:  # pragma: no cover - guarded by make_backend
            raise RuntimeError("NativeMatrixBackend requires packed uint64 keys")
        from repro.core._native import load_native

        lib = load_native()
        ctx = lib.gss_new()
        if not ctx:  # pragma: no cover - allocation failure
            raise MemoryError("native kernel context allocation failed")
        self._lib = lib
        self._ctx = ctx
        self._ctx_finalizer = weakref.finalize(self, lib.gss_free, ctx)
        self._edge_slot = _NativeEdgeSlotMap(lib, ctx)
        self._bucket_fill = np.zeros(self._width * self._width, dtype=np.uint8)
        lcg = sketch._lcg
        config = sketch.config
        self._kernel_config = (
            self._hash_range,
            self._fingerprint_range,
            self._width,
            config.rooms,
            config.sequence_length,
            config.candidate_buckets,
            1 if config.square_hashing else 0,
            1 if config.sampling else 0,
            lcg.multiplier,
            lcg.increment,
            lcg.modulus,
        )
        # Seeded FNV-1a initial state for the kernel's node hashing — the
        # same value hash_functions.hash_bytes starts from, so the kernel's
        # token hashes are bit-identical to hash_string(node, seed).
        self._fnv_state0 = _FNV_OFFSET ^ _splitmix64(config.seed)
        # Kernel out-arrays, reused across batches and grown to the largest
        # batch seen; their contents are consumed before the call returns.
        self._scratch_len = 0
        self._spill_ctr = ctypes.c_int64(0)
        self._rebuf_ctr = ctypes.c_int64(0)
        self._new_ctr = ctypes.c_int64(0)

    def _ensure_batch_scratch(self, count: int) -> None:
        if count <= self._scratch_len:
            return
        self._sc_spill_keys = np.empty(count, dtype=np.uint64)
        self._sc_spill_sums = np.empty(count, dtype=np.float64)
        self._sc_rebuf_keys = np.empty(count, dtype=np.uint64)
        self._sc_rebuf_sums = np.empty(count, dtype=np.float64)
        self._sc_new_offs = np.empty(2 * count, dtype=np.int64)
        self._sc_new_lens = np.empty(2 * count, dtype=np.int64)
        self._sc_new_hashes = np.empty(2 * count, dtype=np.uint64)
        self._scratch_len = count

    def update_many(self, items: Iterable[Tuple[Hashable, Hashable, float]]) -> int:
        """Whole-batch text ingestion: node IDs to placed rooms in one call.

        For all-string batches the node identifiers cross the boundary as a
        single NUL-joined UTF-8 blob (interleaved source/destination stream
        order).  The kernel hashes each token with the same seeded
        FNV-1a/splitmix64 mix as :func:`repro.hashing.hash_functions.hash_string`,
        memoizes it in a persistent C node table, packs the edge keys and
        runs the aggregate/classify/place pipeline — hashing included, the
        batch crosses the Python/kernel boundary exactly once.  Genuinely
        new nodes come back as blob slices and are mirrored into the reverse
        node index (first-seen interleaved order, like the scalar paths) and
        the Python-side node memo; the hash-once counter is credited with
        exactly the keys the kernel mixed.  Batches containing non-string
        IDs — or strings with embedded NULs, which would make the join
        ambiguous — fall back to the inherited per-key path, which is itself
        kernel-backed.
        """
        triples = items if isinstance(items, list) else list(items)
        if not triples:
            return 0
        count = len(triples)
        registry = obs_active()
        started = perf_counter() if registry is not None else 0.0
        sources, destinations, weights = zip(*triples)
        try:
            joined = "\x00".join(chain.from_iterable(zip(sources, destinations)))
        except TypeError:
            return super().update_many(triples)
        blob = joined.encode("utf-8")
        if blob.count(0) != 2 * count - 1:
            return super().update_many(triples)
        weight_array = np.ascontiguousarray(weights, dtype=np.float64)
        self._ensure_capacity(count)
        self._ensure_batch_scratch(count)
        spill_count = self._spill_ctr
        rebuf_count = self._rebuf_ctr
        new_count = self._new_ctr
        marshalled = perf_counter() if registry is not None else 0.0
        new_size = self._lib.gss_ingest_text_batch(
            self._ctx,
            blob,
            len(blob),
            weight_array.ctypes.data,
            count,
            self._fnv_state0,
            *self._kernel_config,
            self._size,
            self._rows.ctypes.data,
            self._cols.ctypes.data,
            self._src_fp.ctypes.data,
            self._dst_fp.ctypes.data,
            self._src_idx.ctypes.data,
            self._dst_idx.ctypes.data,
            self._weights.ctypes.data,
            self._bucket_fill.ctypes.data,
            self._sc_spill_keys.ctypes.data,
            self._sc_spill_sums.ctypes.data,
            ctypes.addressof(spill_count),
            self._sc_rebuf_keys.ctypes.data,
            self._sc_rebuf_sums.ctypes.data,
            ctypes.addressof(rebuf_count),
            self._sc_new_offs.ctypes.data,
            self._sc_new_lens.ctypes.data,
            self._sc_new_hashes.ctypes.data,
            ctypes.addressof(new_count),
        )
        if new_size == -2:  # pragma: no cover - screened by the NUL check
            return super().update_many(triples)
        if new_size < 0:  # pragma: no cover - allocation failure
            raise MemoryError("native kernel batch allocation failed")
        self.matrix_edge_count += new_size - self._size
        self._size = new_size
        placed = perf_counter() if registry is not None else 0.0
        self._apply_buffer_arrays(
            self._sc_spill_keys, self._sc_spill_sums, spill_count.value,
            self._sc_rebuf_keys, self._sc_rebuf_sums, rebuf_count.value,
        )
        spilled = perf_counter() if registry is not None else 0.0
        fresh = new_count.value
        if fresh:
            pairs = [
                (blob[offset : offset + length].decode("utf-8"), node_hash)
                for offset, length, node_hash in zip(
                    self._sc_new_offs[:fresh].tolist(),
                    self._sc_new_lens[:fresh].tolist(),
                    self._sc_new_hashes[:fresh].tolist(),
                )
            ]
            node_index = self._sketch._node_index
            if node_index is not None:
                node_index.record_new_many(pairs)
            cache = self._node_hash_cache
            if len(cache) < self._NODE_CACHE_LIMIT:
                cache.update(pairs)
            _count_hashes(fresh)
        if registry is not None:
            # Hashing brackets the kernel call: blob marshalling before it,
            # mirroring new nodes into the index and node memo after it.
            stage_histogram(registry, "hashing").observe(
                marshalled - started + perf_counter() - spilled
            )
            stage_histogram(registry, "placement").observe(placed - marshalled)
            stage_histogram(registry, "buffer_spill").observe(spilled - placed)
        return count

    def _ingest_keys(self, keys, weights) -> None:
        """One kernel call per batch: aggregate, classify, place, spill."""
        count = len(keys)
        if count == 0:
            return
        registry = obs_active()
        started = perf_counter() if registry is not None else 0.0
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        # Worst case every key is new and placeable: reserve room slots up
        # front so the kernel can append without reallocating.
        self._ensure_capacity(count)
        self._ensure_batch_scratch(count)
        spill_count = self._spill_ctr
        rebuf_count = self._rebuf_ctr
        new_size = self._lib.gss_ingest_batch(
            self._ctx,
            keys.ctypes.data,
            weights.ctypes.data,
            count,
            *self._kernel_config,
            self._size,
            self._rows.ctypes.data,
            self._cols.ctypes.data,
            self._src_fp.ctypes.data,
            self._dst_fp.ctypes.data,
            self._src_idx.ctypes.data,
            self._dst_idx.ctypes.data,
            self._weights.ctypes.data,
            self._bucket_fill.ctypes.data,
            self._sc_spill_keys.ctypes.data,
            self._sc_spill_sums.ctypes.data,
            ctypes.addressof(spill_count),
            self._sc_rebuf_keys.ctypes.data,
            self._sc_rebuf_sums.ctypes.data,
            ctypes.addressof(rebuf_count),
        )
        if new_size < 0:  # pragma: no cover - allocation failure
            raise MemoryError("native kernel batch allocation failed")
        self.matrix_edge_count += new_size - self._size
        self._size = new_size
        placed = perf_counter() if registry is not None else 0.0
        self._apply_buffer_arrays(
            self._sc_spill_keys, self._sc_spill_sums, spill_count.value,
            self._sc_rebuf_keys, self._sc_rebuf_sums, rebuf_count.value,
        )
        if registry is not None:
            stage_histogram(registry, "placement").observe(placed - started)
            stage_histogram(registry, "buffer_spill").observe(perf_counter() - placed)

    def _apply_buffer_arrays(
        self, spill_keys, spill_sums, spills, rebuf_keys, rebuf_sums, rebufs
    ) -> None:
        """Apply the kernel's buffer traffic to the left-over buffer.

        Exactly as the numpy backend orders it: re-buffered edges first
        (their entries already exist, so add order is unobservable), then
        genuine spills in first-seen order (this order creates buffer
        entries and is observable).
        """
        buffer = self._sketch._buffer
        hash_range = np.uint64(self._hash_range)
        if rebufs:
            source_hashes, destination_hashes = np.divmod(
                rebuf_keys[:rebufs], hash_range
            )
            for source_hash, destination_hash, weight in zip(
                source_hashes.tolist(),
                destination_hashes.tolist(),
                rebuf_sums[:rebufs].tolist(),
            ):
                buffer.add(source_hash, destination_hash, weight)
        if spills:
            source_hashes, destination_hashes = np.divmod(
                spill_keys[:spills], hash_range
            )
            for source_hash, destination_hash, weight in zip(
                source_hashes.tolist(),
                destination_hashes.tolist(),
                spill_sums[:spills].tolist(),
            ):
                buffer.add(source_hash, destination_hash, weight)
