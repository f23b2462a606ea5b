"""Reference implementations the fusion model's fast paths are checked against.

The named-distance and score oracles are written term by term from the
definitions, one element pair at a time, and share no code with the model
beyond the scalar `sinusoid` formula (which has its own reference-value
test). The dense head kernel is the attention head over all n * n pairs,
with an (n * n, d) position embedding per pair, that the model's
distance-tuple kernel replaced.
"""

from __future__ import annotations

import numpy as np

from cohgraph.flat import FlatElement
from cohgraph.fusion.model import HeadParams
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


def dense_head_scores(x, pe2d, head, scale):
    """One head's scaled scores before the mask, with a position embedding
    per pair: pe2d (n * n, d_model), row i * n + j for the pair (i, j).
    Returns (scores, q, k, r) with r (n, n, d_head)."""
    n = x.shape[0]
    r = (pe2d @ head.W_r).reshape(n, n, -1)
    q = x @ head.W_q
    k = x @ head.W_k
    s = q @ k.T
    s += np.matmul(r, q[:, :, None])[:, :, 0]
    s += (k @ head.u)[None, :]
    s += r @ head.v
    return s * scale, q, k, r


def dense_head_backward(dout, q, k, v_mat, r, probs, x, pe2d, head, scale):
    """Reverse of the dense head for the output gradient dout (n, d_head),
    given the forward's q, k, values x @ W_v, r and masked probabilities.
    Returns (HeadParams of parameter gradients, dx, dpe2d)."""
    n = x.shape[0]
    dprobs = dout @ v_mat.T
    dv_mat = probs.T @ dout
    ds = probs * (dprobs - (dprobs * probs).sum(axis=1, keepdims=True))
    ds *= scale

    dq = ds @ k + np.matmul(ds[:, None, :], r)[:, 0, :]
    col = ds.sum(axis=0)
    dk = ds.T @ q + np.outer(col, head.u)
    dr2d = (ds[:, :, None] * (q[:, None, :] + head.v[None, None, :])
            ).reshape(n * n, -1)
    grads = HeadParams(
        W_q=x.T @ dq, W_k=x.T @ dk, W_r=pe2d.T @ dr2d, W_v=x.T @ dv_mat,
        u=k.T @ col, v=np.tensordot(ds, r, axes=([0, 1], [0, 1])))
    dx = dq @ head.W_q.T + dk @ head.W_k.T + dv_mat @ head.W_v.T
    return grads, dx, dr2d @ head.W_r.T
