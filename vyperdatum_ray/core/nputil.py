"""Small shared numpy utilities used across pipeline stages."""

from __future__ import annotations

import numpy as np


def isin_sorted(keys: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Membership of ``keys`` in a SORTED unique array via searchsorted
    (O((n+m) log m), no hashing) — empty-set safe. The one broadcast-
    membership idiom shared by the broadcast-join stages (TPC-H Q3
    order filter, Jaccard doc prefilter, cluster assignment)."""
    if len(sorted_set) == 0:
        return np.zeros(len(keys), dtype=bool)
    pos = np.searchsorted(sorted_set, keys)
    pos_c = np.minimum(pos, len(sorted_set) - 1)
    return (pos < len(sorted_set)) & (sorted_set[pos_c] == keys)


def utf8_buffers(col) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """A string column's ``(offsets, data, valid)`` as numpy views of its
    Arrow buffers: ``offsets`` (int32 for ``string``, int64 for
    ``large_string``) holds the ``len + 1`` byte positions of the rows in
    ``data``, the whole uint8 value buffer (a sliced array's rows start
    at ``offsets[0]``, not at 0); ``valid`` is ``None`` when no row is
    NULL. A NULL row's offsets may span bytes, so byte kernels mask it
    with ``valid``. A one-chunk ``ChunkedArray`` is read in place:
    ``combine_chunks`` copies even a single chunk. Any other type
    raises ``TypeError``."""
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    if not (pa.types.is_string(col.type) or pa.types.is_large_string(col.type)):
        raise TypeError(f"utf8_buffers reads string or large_string, not {col.type}")
    _, offsets, data = col.buffers()
    width = np.int64 if pa.types.is_large_string(col.type) else np.int32
    offs = np.frombuffer(offsets, width)[col.offset:col.offset + len(col) + 1]
    b = np.frombuffer(data if data is not None else b"", np.uint8)
    valid = col.is_valid().to_numpy(zero_copy_only=False) if col.null_count else None
    return offs, b, valid
