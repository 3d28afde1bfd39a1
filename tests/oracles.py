"""Reference full-matrix scans the indexed/vectorized backends are checked against.

Both oracles ignore every backend index and walk the bucket matrix through
``GSS._bucket_at`` — the original ``r * m`` slot scan for neighbours and the
``m * m`` scan for reconstruction — so a property test can assert the
production scans return identical results.  Test-only: nothing in ``src``
calls them.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.core.backends import (
    ROOM_DEST_FP,
    ROOM_DEST_INDEX,
    ROOM_SOURCE_FP,
    ROOM_SOURCE_INDEX,
    ROOM_WEIGHT,
)
from repro.core.gss import GSS
from repro.hashing.linear_congruence import recover_address


def neighbor_hashes_unindexed(sketch: GSS, node_hash: int, forward: bool) -> Set[int]:
    """Reference for ``GSS._neighbor_hashes``: scan every slot of the node's rows
    (``forward=True``, successors) or columns (precursors), plus the buffer."""
    _, fingerprint = sketch._split(node_hash)
    addresses = sketch._addresses(node_hash)
    found: Set[int] = set()
    width = sketch.config.matrix_width
    fingerprint_range = sketch.config.fingerprint_range

    own_fp_slot = ROOM_SOURCE_FP if forward else ROOM_DEST_FP
    own_index_slot = ROOM_SOURCE_INDEX if forward else ROOM_DEST_INDEX
    other_fp_slot = ROOM_DEST_FP if forward else ROOM_SOURCE_FP
    other_index_slot = ROOM_DEST_INDEX if forward else ROOM_SOURCE_INDEX

    for position, address in enumerate(addresses):
        expected_index = position + 1
        for offset in range(width):
            if forward:
                bucket = sketch._bucket_at(address, offset)
            else:
                bucket = sketch._bucket_at(offset, address)
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
                found.add(other_base * fingerprint_range + other_fp)

    if forward:
        found.update(sketch.buffer.successors_of(node_hash))
    else:
        found.update(sketch.buffer.precursors_of(node_hash))
    return found


def reconstruct_sketch_edges_unindexed(sketch: GSS) -> List[Tuple[int, int, float]]:
    """Reference for ``GSS.reconstruct_sketch_edges``: a row-major full matrix
    scan followed by the buffer's edges."""
    edges: List[Tuple[int, int, float]] = []
    width = sketch.config.matrix_width
    fingerprint_range = sketch.config.fingerprint_range
    for row in range(width):
        for column in range(width):
            bucket = sketch._bucket_at(row, column)
            if bucket is None:
                continue
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
    edges.extend(sketch.buffer.edges())
    return edges
