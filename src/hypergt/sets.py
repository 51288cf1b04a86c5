"""Node sets as integer bitmasks, and a hypergraph's edges as packed words.

One node set (a query, a target, a single edge) is a Python int with bit v set
iff node v is in the set; Python ints give arbitrary-width masks. The edges of
a hypergraph are also kept as a packed store of little-endian uint64 words of
shape (ceil(n/64), |E|): row j holds nodes 64j..64j+63 of every edge, so one
row is contiguous and one vector op answers a question about all edges at
once. `intersects` is that question for a group test: which edges does the
query hit?
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

WORD_BITS = 64
WORD_DTYPE = np.dtype("<u8")
_WORD_MASK = (1 << WORD_BITS) - 1
_U8 = np.dtype(np.uint8)


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
    """(ceil(n/64), len(masks)) word store; bits at or beyond the last word are dropped."""
    words = np.empty(((n + WORD_BITS - 1) // WORD_BITS, len(masks)), dtype=WORD_DTYPE)
    for j in range(words.shape[0]):
        shift = j * WORD_BITS
        words[j] = np.fromiter(((m >> shift) & _WORD_MASK for m in masks),
                               dtype=WORD_DTYPE, count=len(masks))
    return words


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
