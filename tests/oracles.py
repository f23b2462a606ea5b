"""Reference implementations the fusion model's fast paths are checked against.

Each oracle is written term by term from the definitions, one element pair
at a time, and shares no code with the model beyond the scalar `sinusoid`
formula (which has its own reference-value test).
"""

from __future__ import annotations

import numpy as np

from cohgraph.flat import FlatElement
from cohgraph.fusion.positions import sinusoid


def named_distances(a: FlatElement, b: FlatElement,
                    max_distance: int) -> tuple[int, int, int, int]:
    """The four clipped signed distances from element a to element b."""
    clip = lambda x: int(np.clip(x, -max_distance, max_distance))
    d_start_start = clip(a.start - b.start)
    d_start_end = clip(a.start - b.end)
    d_end_start = clip(a.end - b.start)
    d_end_end = clip(a.end - b.end)
    return d_start_start, d_start_end, d_end_start, d_end_end


def oracle_pair_features(a: FlatElement, b: FlatElement, max_distance: int,
                         d_model: int) -> np.ndarray:
    """Concatenated sinusoids of the four named distances, (4 * d_model,)."""
    return np.concatenate([sinusoid(d, d_model)
                           for d in named_distances(a, b, max_distance)])


def oracle_pair_embedding(a: FlatElement, b: FlatElement, W_p: np.ndarray,
                          max_distance: int,
                          activation: str = "none") -> np.ndarray:
    """Relative position embedding of one pair straight from the distances."""
    out = oracle_pair_features(a, b, max_distance, W_p.shape[1]) @ W_p
    return np.maximum(out, 0) if activation == "relu" else out


def oracle_scores(seq, emb, head, pair_embedding, scale):
    """The four named score terms computed as separate products and summed.

    pair_embedding(a, b) gives the relative position embedding of one pair.
    """
    n = len(seq)
    q = emb @ head.W_q
    k = emb @ head.W_k
    r = np.empty((n, n, head.W_r.shape[1]))
    for i in range(n):
        for j in range(n):
            r[i, j] = pair_embedding(seq.elements[i],
                                     seq.elements[j]) @ head.W_r
    content = q @ k.T
    content_pos = np.array([[q[i] @ r[i, j] for j in range(n)]
                            for i in range(n)])
    global_content = np.tile(k @ head.u, (n, 1))
    global_pos = np.array([[head.v @ r[i, j] for j in range(n)]
                           for i in range(n)])
    return (content + content_pos + global_content + global_pos) * scale
