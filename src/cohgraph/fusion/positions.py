"""Sinusoidal encodings over the four relative distances between 2D positions.

For elements i (query) and j (key) with positions (start, end), the four
signed distances are

    d1 = start_i - start_j    d2 = start_i - end_j
    d3 = end_i - start_j      d4 = end_i - end_j

each clipped to +-max_distance. Their sinusoid encodings are concatenated
into a 4*d_model feature and projected linearly by a trainable matrix
W_p to d_model.

After clipping, a document of n elements has only a few distinct distance
tuples (about 2n to 3n over all n * n pairs, and about n / 2 over the pairs
its attention rows see), so the features and their projection are formed
once per tuple: pos_rows (U, 4) lists the distinct tuples, and each pair
is mapped to its row. Per forward pass the position path holds
(U, 4 * d_model) features and (U, d_model) embeddings, and nothing of
shape (n * n, d_model).
"""

from __future__ import annotations

import numpy as np

from ..flat import FlatSequence


def sinusoid_table(max_distance: int, d_model: int) -> np.ndarray:
    """The fixed sinusoid encodings of every clipped distance, formed for
    all rows at once: row r encodes distance r - max_distance, component 2k
    is sin(distance / 10000^(2k/d_model)) and component 2k+1 the matching
    cosine."""
    table = np.empty((2 * max_distance + 1, d_model), dtype=np.float64)
    distances = np.arange(-max_distance, max_distance + 1, dtype=np.float64)
    k = np.arange(0, d_model, 2)
    angles = distances[:, None] / np.power(10000.0, k / d_model)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)[:, :d_model // 2]
    return table


def distance_indices(seq: FlatSequence, max_distance: int) -> np.ndarray:
    """(n, n, 4) table-row indices of the clipped distances for all pairs."""
    starts = np.array([el.start for el in seq.elements], dtype=np.int64)
    ends = np.array([el.end for el in seq.elements], dtype=np.int64)
    d = np.stack([
        starts[:, None] - starts[None, :],
        starts[:, None] - ends[None, :],
        ends[:, None] - starts[None, :],
        ends[:, None] - ends[None, :],
    ], axis=2)
    np.clip(d, -max_distance, max_distance, out=d)
    return d + max_distance


def unique_distance_rows(dist_idx: np.ndarray):
    """The distinct rows of a (..., 4) table of distance index tuples, such
    as the tuples of a document's visible pairs.

    Returns pos_rows (U, 4), the distinct (d1..d4) index tuples in ascending
    order, and pos_inv of shape dist_idx.shape[:-1] with pos_rows[pos_inv]
    == dist_idx. Each tuple is packed into one int64 key so the dedup is a
    1-D sort, much cheaper than a row-wise unique. The key base is the range
    of indices present, at most 2 * max_distance + 1 and at most twice the
    longest document's span plus one, so the packed keys cannot overflow for
    any document that fits in memory. Indices of any integer dtype are
    upcast to intp first, so the packing cannot wrap in a small one.
    """
    if dist_idx.size == 0:
        return (np.empty((0, 4), dtype=np.int64),
                np.empty(dist_idx.shape[:-1], dtype=np.intp))
    dist_idx = dist_idx.astype(np.intp, copy=False)
    low = dist_idx.min()
    flat = dist_idx.reshape(-1, 4) - low
    base = flat.max() + 1
    keys = ((flat[:, 0] * base + flat[:, 1]) * base
            + flat[:, 2]) * base + flat[:, 3]
    uniq, inv = np.unique(keys, return_inverse=True)
    pos_rows = np.empty((uniq.shape[0], 4), dtype=np.int64)
    for c in (3, 2, 1, 0):
        uniq, pos_rows[:, c] = np.divmod(uniq, base)
    return pos_rows + low, inv.reshape(dist_idx.shape[:-1])


def position_embedding(table: np.ndarray, pos_rows: np.ndarray,
                       W_p: np.ndarray):
    """Relative position embeddings of the U distinct distance tuples
    pos_rows (U, 4): the sinusoid rows of the four distances, concatenated
    and projected linearly by W_p. The embedding of pair (i, j) is row
    pos_inv[i, j] of the result.

    Returns the (U, 4 * d_model) features, which backward reuses, and the
    (U, d_model) embeddings.
    """
    feats = table[pos_rows].reshape(pos_rows.shape[0], -1)
    return feats, feats @ W_p
