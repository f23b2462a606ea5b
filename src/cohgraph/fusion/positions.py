"""Sinusoidal encodings over the four relative distances between 2D positions.

For elements i (query) and j (key) with positions (start, end), the four
signed distances are

    d1 = start_i - start_j    d2 = start_i - end_j
    d3 = end_i - start_j      d4 = end_i - end_j

each clipped to +-max_distance. Their sinusoid encodings are concatenated
into a 4*d_model feature and projected by a trainable matrix to d_model.
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
    """Rows for every clipped distance: row r encodes distance r - max_distance."""
    table = np.empty((2 * max_distance + 1, d_model), dtype=np.float64)
    for r, dist in enumerate(range(-max_distance, max_distance + 1)):
        table[r] = sinusoid(dist, d_model)
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


def position_embedding(table: np.ndarray, dist_idx: np.ndarray,
                       W_p: np.ndarray, activation: str = "none"):
    """Relative position embeddings of all n * n pairs, row i * n + j for
    the pair (i, j): the sinusoid rows of the four distances, concatenated
    and projected by W_p, with an optional ReLU after the projection.

    Returns the (n * n, 4 * d_model) features, the projection before the
    activation and the (n * n, d_model) embeddings; backward reuses the
    first two.
    """
    n = dist_idx.shape[0]
    feats2d = table[dist_idx].reshape(n * n, -1)
    pe_lin = feats2d @ W_p
    pe = np.maximum(pe_lin, 0.0) if activation == "relu" else pe_lin
    return feats2d, pe_lin, pe
