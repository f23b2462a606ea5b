"""Reference implementations the fusion model's fast paths are checked against.

The named-distance and score oracles are written term by term from the
definitions, one element pair at a time, and share no code with the model:
`sinusoid` is the per-distance formula (with its own reference-value test)
that the model's `sinusoid_table` forms for all distances at once. The
dense head kernel is the attention head over all n * n pairs, with an
(n * n, d) position embedding per pair, that the model's global-local
kernel replaced; dense_layout spreads that kernel's per-pair
values over the (n, n) grid the dense kernel uses. all_rows_forward is the
model's forward with the last layer run on every row, as it was before that
layer ran its sentence rows only. dropout_blocks is one document's dropout
draw laid out as DropoutStream documents it, from a fresh Philox generator
with its lanes split one word at a time, and chunk_dropout_keep pads those
blocks into a chunk's masks. adamw_step is AdamW.step as it was
written with a temporary per operation. masked_softmax is the checked
softmax of scores under an additive mask, which the model's kernel forms
as softmax(scores + mask) without the checks.
"""

from __future__ import annotations

import numpy as np

from cohgraph.flat import ElementKind, FlatElement
from cohgraph.fusion.masking import softmax
from cohgraph.fusion.model import HeadParams, chunk_visibility
from cohgraph.fusion.positions import position_embedding
from cohgraph.keyed import DROPOUT


class FullyMaskedRowError(AssertionError):
    """A softmax row with no visible entry; impossible for masks built by
    visible_matrix (the diagonal is always visible)."""


def masked_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise softmax of scores + mask, along the last axis.

    mask has the shape of scores or broadcasts to it (one mask for every
    head of a document). Rows sum to 1 over visible entries; masked entries
    underflow to exactly zero. Raises FullyMaskedRowError if any row has no
    visible entry.
    """
    if (mask.ndim != scores.ndim
            or np.broadcast_shapes(scores.shape, mask.shape) != scores.shape):
        raise ValueError(f"shape mismatch: scores {scores.shape} vs mask {mask.shape}")
    if not (mask == 0.0).any(axis=-1).all():
        raise FullyMaskedRowError("softmax row with every entry masked")
    return softmax(scores + mask)


def head_slice(heads: HeadParams, h: int) -> HeadParams:
    """Head h of a layer's stacked HeadParams: its column block of W_q,
    W_k, W_r, W_v and its row of u, v."""
    d_head = heads.u.shape[-1]
    cols = slice(h * d_head, (h + 1) * d_head)
    return HeadParams(W_q=heads.W_q[:, cols], W_k=heads.W_k[:, cols],
                      W_r=heads.W_r[:, cols], W_v=heads.W_v[:, cols],
                      u=heads.u[h], v=heads.v[h])


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
                          max_distance: int) -> np.ndarray:
    """Relative position embedding of one pair straight from the distances."""
    return oracle_pair_features(a, b, max_distance, W_p.shape[1]) @ W_p


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


def slot_order(seq):
    """Sequence position of each slot of the model's layout: the sentence
    elements, then the others, each in sequence order."""
    kinds = [el.kind is ElementKind.SENTENCE for el in seq.elements]
    return np.array([i for i, k in enumerate(kinds) if k]
                    + [i for i, k in enumerate(kinds) if not k], dtype=np.intp)


def dense_layout(ctx, sentence_block, edge_block, fill):
    """One head's per-pair values from the global-local kernel as an (n, n)
    array in sequence order: sentence_block (S, n) over the context's slots
    and edge_block (E, 3) over each edge row's keys (itself, the sentences
    at its start and end); fill on the pairs no row sees."""
    order = slot_order(ctx.seq)
    n, n_sent = len(order), len(ctx.sentences)
    out = np.full((n, n), fill)
    out[order[:n_sent, None], order] = np.where(ctx.visible, sentence_block,
                                                fill)
    out[order[n_sent:, None], order[ctx.edge_keys]] = edge_block
    return out


def dropout_blocks(stream, doc_index, ctx, config):
    """One document's keep bits for every layer of stream's step under a
    model config: per layer an (attention, FFN) pair of bool arrays over its
    own rows in slot order, (n, d_model) on every layer but the last and
    (S, d_model) on the last, read in that order from its draw: the Philox
    stream keyed by (seed, DROPOUT) at counter (0, epoch, step, doc_index),
    each raw word's low 32 bits, then its high 32 bits, compared with
    round(config.dropout_rate * 2^32)."""
    d_model = config.d_model
    rows = [len(ctx.seq)] * (config.n_layers - 1) + [len(ctx.sentences)]
    size = 2 * d_model * sum(rows)
    words = np.random.Philox(
        key=np.array([stream.seed % 2 ** 64, DROPOUT], dtype=np.uint64),
        counter=[0, stream.epoch, stream.step, doc_index]).random_raw(size // 2)
    lanes = [int(word) >> shift & 0xFFFFFFFF
             for word in words for shift in (0, 32)]
    keep = np.array(lanes) >= round(config.dropout_rate * 2 ** 32)
    blocks, start = [], 0
    for r in rows:
        block = keep[start:start + 2 * r * d_model].reshape(2, r, d_model)
        blocks.append((block[0], block[1]))
        start += 2 * r * d_model
    return blocks


def chunk_dropout_keep(model, stream, doc_indices, contexts):
    """Each layer's (attention, FFN) masks for contexts run as one chunk in
    all_rows_forward: document b's dropout_blocks at doc_indices[b] times
    1 / (1 - rate) in the model's dtype, its sentence rows from row 0 and its
    edge rows from row S, the chunk's most sentences, and 0 on the padding.
    The last layer's block covers the sentence rows only, so its masks are
    0 on the edge rows too, which the classifier never reads."""
    cfg = model.config
    n_sent = max(len(ctx.sentences) for ctx in contexts)
    n = n_sent + max(len(ctx.edge_keys) for ctx in contexts)
    blocks = [dropout_blocks(stream, i, ctx, cfg)
              for i, ctx in zip(doc_indices, contexts)]
    masks = []
    for layer in range(cfg.n_layers):
        keep = np.zeros((2, len(contexts), n, cfg.d_model))
        for b, ctx in enumerate(contexts):
            s = len(ctx.sentences)
            own = np.stack(blocks[b][layer])
            keep[:, b, :s] = own[:, :s]
            keep[:, b, n_sent:n_sent + len(own[0]) - s] = own[:, s:]
        keep = (keep * (1.0 / (1.0 - cfg.dropout_rate))).astype(model.dtype)
        masks.append(tuple(keep.reshape(2, -1, cfg.d_model)))
    return masks


def all_rows_forward(model, contexts, dropout=None, doc_indices=None):
    """(logits, pooled, cache) of model on contexts run as one chunk, with
    every layer, the last too, run on all n rows of each document and the
    sentence rows averaged out of them by (B, n) weights. The cache is laid
    out as forward_context's, so backward_from_logits reads it. dropout, if
    given, is the training stream; document b's masks are keyed by
    doc_indices[b] (default b), as chunk_dropout_keep lays them out."""
    cfg = model.config
    vis, pos_rows = chunk_visibility(contexts, cfg.n_heads)
    n_docs, _, n_sent, n = vis.mask.shape
    if doc_indices is None:
        doc_indices = list(range(n_docs))
    pool = np.zeros((n_docs, n))
    for b, ctx in enumerate(contexts):
        pool[b, :len(ctx.sentences)] = 1.0 / len(ctx.sentences)
    x, embed_index = model._embed(contexts, n_sent, n)
    feats, pe = position_embedding(model.position_table, pos_rows,
                                   model.params["pos/W_p"])
    keep = [None] * cfg.n_layers if dropout is None else chunk_dropout_keep(
        model, dropout, doc_indices, contexts)
    layers = []
    for layer in range(cfg.n_layers):
        x, layer_cache = model._forward_layer(x, pe, vis, layer, keep[layer])
        layers.append(layer_cache)
    pooled = (pool[:, None, :] @ x.reshape(n_docs, n, -1))[:, 0, :]
    logits = pooled @ model.params["clf/W"] + model.params["clf/b"]
    return logits, pooled, {
        "embed": embed_index, "feats": feats, "pe": pe,
        "layers": layers, "x_out": x, "pool": pool, "pooled": pooled}


def adamw_step(opt, grads):
    """One AdamW.step on opt's parameters and moments, each operation into
    a fresh temporary."""
    opt.t += 1
    bc1 = 1.0 - opt.beta1 ** opt.t
    bc2 = 1.0 - opt.beta2 ** opt.t
    for name in sorted(opt.params):
        p = opt.params[name]
        g = grads[name]
        m = opt.m[name]
        v = opt.v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * np.square(g)
        p *= 1.0 - opt.lr * opt.weight_decay
        p -= opt.lr * (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
