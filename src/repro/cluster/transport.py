"""The hashed-batch codec: the cluster's data plane and serve's ingest frame.

The cluster has one data plane.  Every routed
:class:`~repro.streaming.batch.HashedBatch` reaches its worker as an
``("hbatch", blob)`` message on the worker's control pipe, where ``blob`` is
:func:`encode_hashed_batch`'s output; the worker rebuilds the batch with
:func:`decode_hashed_batch` against its own hash spec.  The network front
end's ``FRAME_HBATCH`` (:mod:`repro.serve.protocol`) carries the same blob,
so this module is the one place the hashed-batch wire format is decided.

Blob layout (native endianness; both ends are the same architecture)::

    header:  count (u64), keys_nbytes (u64)
    columns: count x u64 source hashes | count x u64 destination hashes
             | count x f64 weights
    keys:    pickled (sources, destinations) key lists — the worker needs
             the original keys for its reverse node index

Encoding needs NumPy.  Without it the cluster pipes the pickled
``HashedBatch`` object instead (see ``ShardedSummary``), and the server
takes JSON ingest frames.
"""

from __future__ import annotations

import pickle
import struct
from typing import Optional

from repro.hashing.vectorized import load_numpy
from repro.streaming.batch import HashedBatch, HashSpec

__all__ = ["decode_hashed_batch", "encode_hashed_batch"]

_HEADER = struct.Struct("=QQ")


def encode_hashed_batch(batch: HashedBatch) -> bytes:
    """Serialize a hashed batch into one contiguous blob."""
    np = load_numpy()
    count = len(batch)
    source_hashes = np.ascontiguousarray(
        np.asarray(batch.source_hashes, dtype=np.uint64)
    )
    destination_hashes = np.ascontiguousarray(
        np.asarray(batch.destination_hashes, dtype=np.uint64)
    )
    weights = np.ascontiguousarray(np.asarray(batch.weights, dtype=np.float64))
    keys_blob = pickle.dumps(
        (batch.sources, batch.destinations), protocol=pickle.HIGHEST_PROTOCOL
    )
    return b"".join(
        (
            _HEADER.pack(count, len(keys_blob)),
            source_hashes.tobytes(),
            destination_hashes.tobytes(),
            weights.tobytes(),
            keys_blob,
        )
    )


def decode_hashed_batch(
    buffer, offset: int, nbytes: int, spec: Optional[HashSpec]
) -> HashedBatch:
    """Rebuild a hashed batch from ``buffer[offset:offset + nbytes]``.

    The numeric columns are zero-copy ``np.frombuffer`` views into
    ``buffer``, so they live as long as the batch does; keys are unpickled
    (owned copies) because they outlive the batch in the worker's reverse
    node index.
    """
    np = load_numpy()
    count, keys_nbytes = _HEADER.unpack_from(buffer, offset)
    cursor = offset + _HEADER.size
    source_hashes = np.frombuffer(buffer, dtype=np.uint64, count=count, offset=cursor)
    cursor += 8 * count
    destination_hashes = np.frombuffer(
        buffer, dtype=np.uint64, count=count, offset=cursor
    )
    cursor += 8 * count
    weights = np.frombuffer(buffer, dtype=np.float64, count=count, offset=cursor)
    cursor += 8 * count
    sources, destinations = pickle.loads(buffer[cursor : cursor + keys_nbytes])
    return HashedBatch.from_columns(
        spec, sources, destinations, weights, source_hashes, destination_hashes
    )
