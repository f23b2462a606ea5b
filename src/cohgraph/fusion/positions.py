"""Sinusoidal encodings over the four relative distances between 2D positions.

For elements i (query) and j (key) with positions (start, end), the four
signed distances are

    d1 = start_i - start_j    d2 = start_i - end_j
    d3 = end_i - start_j      d4 = end_i - end_j

each clipped to +-max_distance. Their sinusoid encodings are concatenated
into a 4*d_model feature and projected by a trainable matrix to d_model.

After clipping, a document of n elements has only U distinct distance
tuples (about 2n to 3n, against n * n pairs), so the features and their
projection are formed once per tuple: pos_rows (U, 4) lists the distinct
tuples and pos_inv (n, n) maps each pair to its row. Per forward pass the
position path holds (U, 4 * d_model) features and (U, d_model) embeddings,
and nothing of shape (n * n, d_model).
"""

from __future__ import annotations

import numpy as np

from ..flat import FlatSequence


def sinusoid(distance: int, d_model: int) -> np.ndarray:
    """Fixed sinusoid encoding of a signed distance.

    Component 2k is sin(distance / 10000^(2k/d_model)) and component 2k+1 the
    matching cosine.
    """
    out = np.empty(d_model, dtype=np.float64)
    k = np.arange(0, d_model, 2)
    angles = distance / np.power(10000.0, k / d_model)
    out[0::2] = np.sin(angles)
    out[1::2] = np.cos(angles)[:out[1::2].shape[0]]
    return out


def sinusoid_table(max_distance: int, d_model: int) -> np.ndarray:
    """Rows for every clipped distance: row r is sinusoid(r - max_distance,
    d_model), formed for all rows at once."""
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
    as an (n, n, 4) distance_indices table or the stacked pos_rows of a
    chunk of documents.

    Returns pos_rows (U, 4), the distinct (d1..d4) index tuples in ascending
    order, and pos_inv of shape dist_idx.shape[:-1] with pos_rows[pos_inv]
    == dist_idx. Each tuple is packed into one int64 key so the dedup is a
    1-D sort, much cheaper than a row-wise unique. The key base is the range
    of indices present, at most 2 * max_distance + 1 and at most twice the
    longest document's span plus one, so the packed keys cannot overflow for
    any document that fits in memory. Indices of any integer dtype are
    upcast to intp first, so the packing cannot wrap in a small one.
    """
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


def pair_columns(pos_inv: np.ndarray, n_rows: int,
                 n_heads: int) -> np.ndarray:
    """Flat index of each pair's per-tuple term, for a chunk of B documents
    padded to n elements: pos_inv (B, n, n) -> (B, n_heads, n, n) index into
    a flattened (B, n_heads, n, n_rows) array, ((b * n_heads + h) * n + i)
    * n_rows + pos_inv[b, i, j]."""
    n_docs, n = pos_inv.shape[:2]
    base = np.arange(0, n_docs * n_heads * n * n_rows, n_rows)
    return (base.reshape(n_docs, n_heads, n, 1)
            + pos_inv.reshape(n_docs, 1, n, n))


def position_embedding(table: np.ndarray, pos_rows: np.ndarray,
                       W_p: np.ndarray, activation: str = "none"):
    """Relative position embeddings of the U distinct distance tuples
    pos_rows (U, 4): the sinusoid rows of the four distances, concatenated
    and projected by W_p, with an optional ReLU after the projection. The
    embedding of pair (i, j) is row pos_inv[i, j] of the result.

    Returns the (U, 4 * d_model) features, the projection before the
    activation and the (U, d_model) embeddings; backward reuses the first
    two.
    """
    feats = table[pos_rows].reshape(pos_rows.shape[0], -1)
    pe_lin = feats @ W_p
    pe = np.maximum(pe_lin, 0.0) if activation == "relu" else pe_lin
    return feats, pe_lin, pe
