"""The hashed-batch codec: the one format a batch crosses a process boundary in.

Every routed :class:`~repro.streaming.batch.HashedBatch` reaches its worker
as an ``("hbatch", blob)`` message on the worker's control pipe, where
``blob`` is :func:`encode_hashed_batch`'s output; the worker rebuilds the
batch with :func:`decode_hashed_batch` against its own hash spec.  The
network front end's ``FRAME_HBATCH`` (:mod:`repro.serve.protocol`) carries
the same blob, so this module is the one place the hashed-batch wire format
is decided.

Blob layout (native endianness; both ends are the same architecture)::

    header:  count (u64), keys_nbytes (u64)
    columns: count x u64 source hashes | count x u64 destination hashes
             | count x f64 weights
    keys:    pickled (sources, destinations) key lists — the worker needs
             the original keys for its reverse node index

The codec needs only the standard library.  Columns are packed from NumPy
arrays or plain lists alike (the bytes are identical); decoding yields
zero-copy ``np.frombuffer`` views when NumPy is available and plain lists
otherwise — the same two column types ``HashedBatch`` already carries.  A
blob that is truncated or whose header disagrees with its length raises
:class:`BatchDecodeError` before any column is sliced.
"""

from __future__ import annotations

import pickle
import struct
from array import array
from typing import Optional

from repro.hashing.vectorized import NUMPY_AVAILABLE, load_numpy
from repro.streaming.batch import HashedBatch, HashSpec

__all__ = [
    "BatchDecodeError",
    "decode_hashed_batch",
    "encode_hashed_batch",
    "pack_column",
    "unpack_column",
]

_HEADER = struct.Struct("=QQ")

#: NumPy dtype of each column typecode (u64 hashes, f64 weights).
_DTYPES = {"Q": "uint64", "d": "float64"}

#: Bytes per row of the three fixed-width columns.
_ROW_BYTES = 3 * 8


class BatchDecodeError(ValueError):
    """A hashed-batch blob is truncated, inconsistent or undecodable."""


def pack_column(column, typecode: str) -> bytes:
    """Native-endian bytes of a u64 (``"Q"``) or f64 (``"d"``) column."""
    astype = getattr(column, "astype", None)
    if astype is not None:  # a NumPy array: no copy when the dtype matches
        return astype(_DTYPES[typecode], copy=False).tobytes()
    return array(typecode, column).tobytes()


def unpack_column(buffer, offset: int, count: int, typecode: str):
    """The ``count``-row column at ``buffer[offset:]`` (bounds already checked)."""
    if NUMPY_AVAILABLE:
        return load_numpy().frombuffer(
            buffer, dtype=_DTYPES[typecode], count=count, offset=offset
        )
    column = array(typecode)
    column.frombytes(buffer[offset : offset + 8 * count])
    return column.tolist()


def encode_hashed_batch(batch: HashedBatch) -> bytes:
    """Serialize a hashed batch into one contiguous blob."""
    keys_blob = pickle.dumps(
        (batch.sources, batch.destinations), protocol=pickle.HIGHEST_PROTOCOL
    )
    return b"".join(
        (
            _HEADER.pack(len(batch), len(keys_blob)),
            pack_column(batch.source_hashes, "Q"),
            pack_column(batch.destination_hashes, "Q"),
            pack_column(batch.weights, "d"),
            keys_blob,
        )
    )


def decode_hashed_batch(
    buffer, offset: int, nbytes: int, spec: Optional[HashSpec]
) -> HashedBatch:
    """Rebuild a hashed batch from ``buffer[offset:offset + nbytes]``.

    With NumPy the numeric columns are zero-copy views into ``buffer``, so
    they live as long as the batch does; keys are unpickled (owned copies)
    because they outlive the batch in the worker's reverse node index.
    Raises :class:`BatchDecodeError` when the header's row count and key
    length do not add up to exactly ``nbytes``, or the keys do not unpickle
    into two lists of ``count`` keys.
    """
    end = offset + nbytes
    if nbytes < _HEADER.size or end > len(buffer):
        raise BatchDecodeError(
            f"hashed-batch blob of {nbytes} bytes is shorter than its header "
            "or overruns its buffer"
        )
    count, keys_nbytes = _HEADER.unpack_from(buffer, offset)
    cursor = offset + _HEADER.size
    if _ROW_BYTES * count + keys_nbytes != end - cursor:
        raise BatchDecodeError(
            f"hashed-batch header ({count} rows, {keys_nbytes} key bytes) "
            f"does not match its {nbytes}-byte blob"
        )
    source_hashes = unpack_column(buffer, cursor, count, "Q")
    destination_hashes = unpack_column(buffer, cursor + 8 * count, count, "Q")
    weights = unpack_column(buffer, cursor + 16 * count, count, "d")
    try:  # malformed pickles raise almost any exception type
        sources, destinations = pickle.loads(buffer[end - keys_nbytes : end])
        if len(sources) != count or len(destinations) != count:
            raise ValueError(f"key lists do not hold {count} rows")
    except Exception as error:
        raise BatchDecodeError(f"undecodable key section: {error!r}") from None
    return HashedBatch.from_columns(
        spec, sources, destinations, weights, source_hashes, destination_hashes
    )
