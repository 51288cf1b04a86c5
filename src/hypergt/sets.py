"""Node sets as integer bitmasks, and a hypergraph's edges as packed words.

One node set (a query, a target, a single edge) is a Python int with bit v set
iff node v is in the set; Python ints give arbitrary-width masks. The edges of
a hypergraph are also kept as a packed store of little-endian uint64 words of
shape (ceil(n/64), |E|): row j holds nodes 64j..64j+63 of every edge, so one
row is contiguous and one vector op answers a question about all edges at
once. `intersects` is that question for a group test: which edges does the
query hit? `meets` asks it for a block of queries packed by `pack_rows`.
Both read whole rows, so a column selection of a store is taken with `take`
or `compress` along axis 1, which stay row-major: fancy indexing,
`words[:, idx]`, returns a column-major copy whose rows are strided.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

WORD_BITS = 64
WORD_DTYPE = np.dtype("<u8")
_U8 = np.dtype(np.uint8)
_PACK_CHUNK = 1024  # masks converted per join in pack_words


def mask_of(nodes: Iterable[int]) -> int:
    m = 0
    for v in nodes:
        m |= 1 << operator.index(v)  # numpy ints become Python ints; floats raise TypeError
    return m


def mask_from_flags(flags: np.ndarray) -> int:
    """Mask of the indices where a bool array is True."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def nodes_of(mask: int) -> tuple[int, ...]:
    """Sorted node indices of a non-negative mask."""
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, _U8), bitorder="little")
    return tuple(bits.nonzero()[0].tolist())


def full_mask(n: int) -> int:
    return (1 << n) - 1


def pack_words(masks: Sequence[int], n: int) -> np.ndarray:
    """(ceil(n/64), len(masks)) word store of non-negative masks below 2^(64 ceil(n/64)).
    A one-word store is converted in one call; wider masks are split into words
    through their bytes."""
    rows = (n + WORD_BITS - 1) // WORD_BITS
    if rows == 1:
        return np.array(masks, dtype=WORD_DTYPE).reshape(1, len(masks))
    words = np.empty((rows, len(masks)), dtype=WORD_DTYPE)
    for lo in range(0, len(masks), _PACK_CHUNK):  # chunks bound the bytes held beside the store
        chunk = masks[lo:lo + _PACK_CHUNK]
        raw = b"".join([m.to_bytes(rows * 8, "little") for m in chunk])
        words[:, lo:lo + len(chunk)] = np.frombuffer(raw, WORD_DTYPE).reshape(len(chunk), rows).T
    return words


def pack_rows(flags: np.ndarray) -> np.ndarray:
    """(k, ceil(n/64)) words of a (k, n) bool array: row i is the set of flags[i]."""
    k, n = flags.shape
    rows = np.zeros((k, (n + WORD_BITS - 1) // WORD_BITS * 8), dtype=_U8)
    rows[:, :(n + 7) // 8] = np.packbits(flags, axis=1, bitorder="little")
    return rows.view(WORD_DTYPE)


def meets(words: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """(k, columns) bool: whether query i, a row of `pack_rows`, shares a node
    with each column of a word store of as many rows."""
    hits = np.zeros((queries.shape[0], words.shape[1]), dtype=WORD_DTYPE)
    for j in range(words.shape[0]):
        hits |= queries[:, j, None] & words[j]
    return hits != 0


def intersects(words: np.ndarray, t_mask: int) -> np.ndarray:
    """For each column of a word store, whether it shares a node with t_mask.

    The query is packed once and only its nonzero words are touched. Query
    bits beyond the store's last word meet no column.
    """
    rows = words.shape[0]
    t_words = np.frombuffer(
        (t_mask & full_mask(rows * WORD_BITS)).to_bytes(rows * 8, "little"), WORD_DTYPE)
    acc = None
    for j in t_words.nonzero()[0].tolist():
        hit = words[j] & t_words[j]
        if acc is None:
            acc = hit
        else:
            acc |= hit
    if acc is None:
        return np.zeros(words.shape[1], dtype=bool)
    return acc != 0


def unpack_words(words: np.ndarray, n: int) -> np.ndarray:
    """(columns, n) float matrix, entry 1.0 iff node v is in column e."""
    column_bytes = words.T.copy().view(_U8)  # little-endian words, so bit v is node v
    return np.unpackbits(column_bytes, axis=1, count=n, bitorder="little").astype(float)


def column_nodes(words: np.ndarray) -> np.ndarray:
    """Node indices of every set bit, column after column, ascending in each."""
    cols, rows = np.nonzero(words.T)
    bits = np.unpackbits(words[rows, cols].view(_U8).reshape(-1, 8), axis=1, bitorder="little")
    word, bit = np.divmod(np.flatnonzero(bits.view(bool)), WORD_BITS)
    return rows[word] * WORD_BITS + bit
