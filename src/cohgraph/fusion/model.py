"""Position-aware fusion transformer over flat sequences, with hand-written
reverse-mode gradients.

Every parameter, activation, gradient, mask and optimizer state is of the
config's dtype: float32 by default, float64 on request (the tests' oracles
and finite-difference checks run at float64). Each random initial tensor is
drawn whole in float64 from its own keyed stream (see _init_params; keyed
is the program's one source of random numbers) and cast once, so a float32
model starts from the rounded initial values of the float64 one; dropout
keeps a unit by an integer comparison (see DropoutStream), so both drop
the same units.
Parameters live in a flat name -> array dict so the optimizer,
checkpointing, and finite-difference checks can enumerate them uniformly; a
layer stores its heads stacked, laid out as HeadParams says. Checkpoints
(format 3) record the fusion variant the model was trained under and write
each tensor in the model's dtype; load reads format 2 files, which record
their variant too, as float64, and refuses format 1 files, which record
none. The attention score between elements i and j is

    A_ij = q_i k_j^T + q_i r_ij^T + u k_j^T + v r_ij^T

with q, k from the element embeddings, r_ij from the pairwise relative
position embedding (a linear projection of the distances' sinusoids), and
u, v trainable biases of each head; scores are scaled by 1/sqrt(d_head) and
softmaxed over the keys that masking.visible_matrix lets i see. All heads of
a layer run as one batch axis of the kernel head_forward / head_backward,
and head_scores is the only place the score is formed. Each layer then
applies the standard value mixing, output projection, post-norm residuals,
and a softplus feed-forward block.

The kernel follows the mask's two kinds of row (the global-local pattern,
with the sentences as the global tokens). A document is laid out in slot
order, its S sentences then its E edge (entity and relation) elements, each
kind in sequence order, so each kind is one slice of a layer's rows in any
element order. A sentence row sees every sentence and the edges incident on
it: the sentence rows are one masked (S, n) block against all keys. An edge
row sees exactly three keys, itself and the sentences at its start and end,
and its softmax runs over those three: their content terms are read from
one (E, n) product of the edge queries with the keys (cheaper than
gathering key vectors at these sizes), their position terms from the few
distance tuples only edge rows use.

The classifier maps the mean of the last layer's sentence outputs to the
logits of the three coherence classes, so the last layer runs only the S
sentence rows as queries: its keys, values and position path still cover
all n rows, and its query projection, sentence block, output projection,
LayerNorms, FFN and dropout masks run on the S rows. Its edge rows are
never formed; edge embeddings still get its gradient through its keys and
values.

r_ij depends on the pair only through its clipped distance tuple, and only
the U distinct tuples of pairs some row sees are kept (about n / 2 on long
documents). The position path runs on those rows: the embeddings are
projected once per tuple, each head projects r on them, sentence and edge
rows read their terms from one (S, U) and one (E, M) product, M the tuples
edge rows use, and backward sums the pair gradients onto the tuple rows.
Nothing (n * n, d_model) is formed, and nothing n * n gathered or softmaxed.

Per-document structure (sequence, the sentence rows' visibility, each edge
row's keys, the distinct distance tuples and each visible pair's tuple,
token buckets) is independent of the parameters, so it is prepared once
into a read-only SequenceContext. FusionModel.prepare is the one way in: it
keeps each context for as long as its document is alive, keyed by the
document's identity, the variant and the ModelConfig, so every fit, fold
and forward call in a process with that config shares it, and predict
reuses it. predict keeps nothing it prepares itself: a document no fit has
seen is prepared with its chunk.

Documents run through the layers in chunks: chunk_order walks a batch in
stable ascending length order and closes a chunk before B documents padded
to its most sentences plus most edges would exceed its row budget (see
PAD_ROW_BUDGET). A chunk pads each document's sentences, edges and
distance tuples (a block per document, as its context lays them out) to
its most sentences S, edges E and tuples U, and is one call per
projection, block, softmax, FFN and LayerNorm of each layer, with
documents and heads as batch axes. A document's rows score only its own
block, so a chunk's position products, (B, H, S, U) and (B, H, E, M) with
M the most edge tuples of a document, grow linearly in B. A padded slot
sees only itself, no real row sees a padded one and no pair maps to a
padded tuple, so padding never changes a real row and gets exactly zero
gradient. forward_context runs one context as a chunk of one. In
training, a chunk builds every layer's dropout masks at once from one draw
per document, keyed by its position in the batch and laid out as
DropoutStream says, so no mask depends on the chunk.

Activations are bounded per chunk, not per batch: one chunk's cache is
alive at a time, and it holds about B * (S + E) rows of activations per
layer but the last, which holds B * S rows of its caches (its input is the
previous layer's B * (S + E) rows), and, per layer, the probabilities of
the sentence rows (B, H, S, S + E) and, but the last, of the edge rows
(B, H, E, 3); the (B, H, S, U) position scores and (B, H, E, S + E) edge
blocks exist only while a layer runs. A document longer than half the
budget runs alone, so at the default d_model every document of more than
48 elements keeps the shapes and memory it has on its own.

Kept contexts are bounded per live document instead: while a document of n
elements, S of them sentences, with U distinct tuples is alive, each
(variant, config) a fit or forward prepared it under holds
S * n bytes of sentence-row visibility (bool), S * n * itemsize bytes of
their tuple index (the smallest unsigned dtype holding U - 1: 1 byte up to
U = 256, 2 up to 65,536) and O(n + U) for the sequence, edge keys and
tuples, token buckets and tuple rows, under 192 bytes per element and tuple
(about 140 measured on 140-150-element documents). Dropping the document
drops its contexts.
"""

from __future__ import annotations

import json
import logging
import math
import os
import weakref
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..documents import Document
from ..flat import ElementKind, FlatSequence, apply_variant, linearize
from ..graph import build_graph
from ..keyed import DROPOUT, INIT, KeyedStream
from ..labels import CoherenceLabel
from ..relations import load_registry
from ..variants import FUSION_VARIANTS, Variant
from .config import ModelConfig
from .encoder import HashBucketSentenceEncoder, add_rows_at, stable_bucket
from .masking import MASKED, softmax, visible_matrix
from .positions import (distance_indices, position_embedding, sinusoid_table,
                        unique_distance_rows)

logger = logging.getLogger(__name__)

LN_EPS = 1e-5

N_RELATION_ROWS = 30  # 15 explicit + 15 implicit senses, canonical order
N_CLASSES = len(CoherenceLabel)

# Padded rows (documents in a chunk x its most S plus most E) one chunk may
# hold: PAD_VALUE_BUDGET / d_model, at most PAD_ROW_BUDGET; 96 at the
# default d_model 256, 192 at 128 and the cap at 64 and below. Layer caches grow with rows x d_model, so this bounds
# a chunk's memory; a document longer than half the rows runs alone.
PAD_ROW_BUDGET = 384
PAD_VALUE_BUDGET = 96 * 256

# Bytes a parameter tensor costs besides its values: the array object, its
# allocation and its name's dict entry (about 260 measured on small tensors)
TENSOR_OVERHEAD = 256


class NumericalError(RuntimeError):
    """Non-finite value produced during computation."""


class ContractError(ValueError):
    """Caller violated an operation precondition."""


@dataclass(frozen=True)
class HeadParams:
    """The parameters of H attention heads, as layer l stores them in
    layer{l}/<field>: W_q, W_k, W_r, W_v (d_model, H * d_head) with head h
    in columns h * d_head to (h + 1) * d_head, and u, v (H, d_head) with
    head h in row h."""

    W_q: np.ndarray
    W_k: np.ndarray
    W_r: np.ndarray
    W_v: np.ndarray
    u: np.ndarray
    v: np.ndarray


_HEAD_FIELDS = ("W_q", "W_k", "W_r", "W_v", "u", "v")


@dataclass(frozen=True)
class SequenceContext:
    """Parameter-independent structure of one document's flat sequence.

    The model lays a document out in slot order: its S sentences, then its
    E edge (entity and relation) elements, each kind in sequence order, so
    a sequence in any element order, such as a permuted one, is laid out
    the same way. A sentence row sees every sentence and the edges
    incident on it, so its visibility is an (S, n) block over the slots; an
    edge row sees exactly three keys: itself and the sentences at its start
    and end. Only the pairs some row sees keep a distance tuple, and
    pos_rows holds just the tuples they use.

    A context FusionModel.prepare keeps is shared by every model with the
    same config and every call on the same document, so context arrays are
    read-only, and a context holds no reference to its document. Index
    arrays are stored in the smallest unsigned dtype that holds them;
    upcast to intp before any arithmetic on them."""

    seq: FlatSequence
    visible: np.ndarray         # (S, n) bool: sentence s may attend to slot t
    sentence_pos: np.ndarray    # (S, n) row of pos_rows of each visible
                                # sentence-row pair, 0 where masked
    edge_keys: np.ndarray       # (E, 3) slots each edge row sees: itself,
                                # the sentences at its start and its end
    edge_pos: np.ndarray        # (E, 3) row of pos_rows of each edge row's
                                # pairs with itself, its start and its end
    pos_rows: np.ndarray        # (U, 4) sinusoid-table rows of each distinct
                                # clipped distance tuple of a visible pair:
                                # the edge rows' tuples first
    n_edge_tuples: int          # how many of them the edge rows use
    sentences: tuple            # encoder-prepared tokens of each sentence
    lookups: tuple              # (table name, edge slots, table rows) for
                                # the entity and relation elements
    label: int | None
    doc_id: str


@dataclass(frozen=True)
class Visibility:
    """The attention structure of a chunk of B documents, each laid out in
    n = S + E rows: S sentence slots, then E edge slots, where S and E are
    the chunk's largest counts and a document with fewer pads each kind at
    its end. Every slot is a key; the query rows are the S sentence slots
    and the E edge slots, or, after sentence_queries, the sentence slots
    alone.

    A sentence row scores every row of its document under an additive
    mask. An edge row scores three keys: itself, and the sentences at its
    start and end. A padded sentence slot sees only itself and a padded
    edge slot only itself, so no softmax row is empty and no real row
    attends to a padded one."""

    mask: np.ndarray        # (B, 1, S, n) additive mask of the sentence rows
    cols: np.ndarray        # (B, H, S, n) flat index of each sentence-row
                            # pair's position term in a (B, H, S, U) array
    edge_cols: np.ndarray   # (B, H, E, 3) flat index of each edge query
                            # row's keys (itself, start, end) in a
                            # (B, H, E, n) array; E is 0 after
                            # sentence_queries
    tuple_cols: np.ndarray  # (B, H, E, 3) flat index of their distance
                            # tuples in a (B, H, E, n_edge_tuples) array
    n_edge_tuples: int      # most edge-row tuples of a document's block

    @property
    def n_queries(self) -> int:
        """Query rows per document: the S sentence slots, then the edge
        slots if they query too. A layer's output has these rows."""
        return self.mask.shape[2] + self.edge_cols.shape[2]

    def sentence_queries(self) -> "Visibility":
        """The same chunk with the S sentence slots as its only query rows:
        the edge slots stay keys and values."""
        return replace(self, edge_cols=self.edge_cols[:, :, :0],
                       tuple_cols=self.tuple_cols[:, :, :0])


# FusionModel.prepare's kept contexts:
# id(document) -> {(variant, ModelConfig): context}.
# A weakref.finalize on the document drops its entry when it is collected;
# the identity is the key because hashing a Document walks its content.
_CONTEXTS: dict[int, dict[tuple, SequenceContext]] = {}


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _compact(a: np.ndarray) -> np.ndarray:
    """a (non-negative integers) in the smallest unsigned dtype holding it,
    read-only."""
    return _read_only(a.astype(np.min_scalar_type(a.max(initial=0))))


# ---------------------------------------------------------------------------
# parameter layout


def expected_param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter name and shape implied by a config (checkpoint contract)."""
    d, d_h, ffn = config.d_model, config.d_head, config.ffn_dim
    shapes = {HashBucketSentenceEncoder.PARAM_NAME: (config.n_token_buckets, d)}
    shapes["embed/entity"] = (config.n_entity_buckets, d)
    shapes["embed/relation"] = (N_RELATION_ROWS, d)
    shapes["pos/W_p"] = (4 * d, d)
    for l in range(config.n_layers):
        for w in ("W_q", "W_k", "W_r", "W_v"):
            shapes[f"layer{l}/{w}"] = (d, config.n_heads * d_h)
        shapes[f"layer{l}/u"] = shapes[f"layer{l}/v"] = (config.n_heads, d_h)
        shapes[f"layer{l}/W_o"] = (d, d)
        shapes[f"layer{l}/b_o"] = (d,)
        shapes[f"layer{l}/ln1/gamma"] = (d,)
        shapes[f"layer{l}/ln1/beta"] = (d,)
        shapes[f"layer{l}/ffn/W1"] = (d, ffn)
        shapes[f"layer{l}/ffn/b1"] = (ffn,)
        shapes[f"layer{l}/ffn/W2"] = (ffn, d)
        shapes[f"layer{l}/ffn/b2"] = (d,)
        shapes[f"layer{l}/ln2/gamma"] = (d,)
        shapes[f"layer{l}/ln2/beta"] = (d,)
    shapes["clf/W"] = (d, N_CLASSES)
    shapes["clf/b"] = (N_CLASSES,)
    return shapes


def check_size(config: ModelConfig) -> int:
    """The number of config's parameter tensors, counted in closed form with
    their values: a one-layer model's, its layer counted n_layers times, so
    nothing is enumerated per layer. Raises ContractError naming the size
    fields if the parameters with their training state (gradients and two
    AdamW moments: four copies) and the float64 sinusoid table while it is
    formed would exceed this machine's physical memory; call it before
    allocating anything config-sized."""
    one = expected_param_shapes(replace(config, n_layers=1))
    layer = [math.prod(shape) for name, shape in one.items()
             if name.startswith("layer0/")]
    rest = [math.prod(shape) for name, shape in one.items()
            if not name.startswith("layer0/")]
    n_tensors = len(rest) + len(layer) * config.n_layers
    n_values = sum(rest) + sum(layer) * config.n_layers
    # forming the float64 sinusoid table peaks at about 2.1 times its bytes
    # (measured): its angles, sines and cosines exist beside it
    need = (4 * (n_values * np.dtype(config.dtype).itemsize
                 + n_tensors * TENSOR_OVERHEAD)
            + 3 * (2 * config.max_relative_distance + 1) * config.d_model * 8)
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: no bound
        return n_tensors
    if need > physical:
        fields = ", ".join(f"{name}={getattr(config, name)}" for name in (
            "d_model", "d_ffn", "n_layers", "n_token_buckets",
            "n_entity_buckets", "max_relative_distance"))
        raise ContractError(
            f"model too large: {fields} need {need / 2 ** 30:.1f} GiB for "
            f"the parameters with their training state and the position "
            f"table, more than this machine's {physical / 2 ** 30:.1f} GiB "
            f"of physical memory")
    return n_tensors


# The randomly initialised fields: a field's index here is its coordinate in
# the INIT stream, so a new one goes at the end. Each is a normal draw with
# the scale in _INIT_SCALES, else 1 / sqrt(fan-in), its first dimension.
_INIT_FIELDS = (HashBucketSentenceEncoder.PARAM_NAME, "embed/entity",
                "embed/relation", "pos/W_p", "clf/W", *_HEAD_FIELDS, "W_o",
                "ffn/W1", "ffn/W2")
_INIT_SCALES = {HashBucketSentenceEncoder.PARAM_NAME: 0.5,
                "embed/entity": 0.5, "embed/relation": 0.5, "u": 0.1, "v": 0.1}


def _init_params(config: ModelConfig) -> dict[str, np.ndarray]:
    """Initial parameters: each random tensor drawn whole, in float64, from
    the keyed stream of (seed, keyed.INIT) at (layer + 1, its field), layer
    0 outside a layer, so its value depends on its own shape alone, and
    cast once to config.dtype, so no more than one float64 draw is held at
    a time. Biases and betas are zeros and gammas ones."""
    streams = KeyedStream(config.seed, INIT)
    dtype = np.dtype(config.dtype)
    params: dict[str, np.ndarray] = {}
    for name, shape in expected_param_shapes(config).items():
        head, _, rest = name.partition("/")
        layer, field = ((int(head[5:]) + 1, rest) if head.startswith("layer")
                        else (0, name))
        if field in _INIT_FIELDS:
            rng = np.random.Generator(
                streams.at(layer, _INIT_FIELDS.index(field)))
            scale = _INIT_SCALES.get(field, 1.0 / np.sqrt(shape[0]))
            params[name] = rng.normal(0.0, scale, shape).astype(dtype,
                                                                copy=False)
        else:
            params[name] = (np.ones if field.endswith("gamma")
                            else np.zeros)(shape, dtype)
    return params


# ---------------------------------------------------------------------------
# primitive blocks


def layer_norm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """LayerNorm over the last axis of x (rows, d)."""
    # sum / d is what mean computes, without its per-call overhead
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / d
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def layer_norm_backward(dy: np.ndarray, cache):
    xhat, inv, gamma = cache
    d = xhat.shape[-1]
    dxhat = dy * gamma
    dgamma = (dy * xhat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    dx = (inv / d) * (d * dxhat - dxhat.sum(axis=-1, keepdims=True)
                      - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
    return dx, dgamma, dbeta


def _softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z) without overflow; several times cheaper than logaddexp.
    Smooth, so finite-difference gradient checks are well-posed at the
    pinned epsilon."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _softplus_grad(hidden: np.ndarray) -> np.ndarray:
    """Derivative of softplus from its output hidden = _softplus(z):
    softplus'(z) = sigmoid(z) = 1 - exp(-softplus(z))."""
    return -np.expm1(-hidden)


def _split_heads(a: np.ndarray, n_rows: int, n_heads: int) -> np.ndarray:
    """(B * n_rows, H * d_head) -> (B, H, n_rows, d_head), a view."""
    return a.reshape(-1, n_rows, n_heads,
                     a.shape[-1] // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(B, H, n_rows, d_head) -> (B * n_rows, H * d_head)."""
    b, h, n_rows, d_head = a.shape
    return a.transpose(0, 2, 1, 3).reshape(b * n_rows, h * d_head)


def _query_rows(a: np.ndarray, n: int, rows: int) -> np.ndarray:
    """The first rows of each document's n rows of a (B * n, d), as
    (B * rows, d): a itself when rows is n."""
    if rows == n:
        return a
    return a.reshape(-1, n, a.shape[-1])[:, :rows].reshape(-1, a.shape[-1])


def head_scores(x: np.ndarray, pe: np.ndarray, vis: Visibility,
                heads: HeadParams):
    """Four-term scores q_i.k_j + q_i.r_ij + u.k_j + v.r_ij of every
    head on the keys each query row sees, before the mask, for a chunk laid
    out as vis describes: layer input x (B * n, d_model) and the position
    embeddings pe (B * U, d_model) of its documents' U-tuple blocks.

    Each score is (q_i + u).k_j + (q_i + v).r_ij, and both terms are batched
    products read per pair: sentence rows' from their products with all n
    keys and their block's U tuples, edge rows' from their products with
    all n keys and its first n_edge_tuples tuples, scaled by 1 / sqrt(d_head)
    with d_head read from heads.u. Returns (sentence scores
    (B, H, S, n), edge scores (B, H, E_q, 3) on (itself, start, end),
    (q, k, r)) with q (B * vis.n_queries, H * d_head) on the query rows,
    k (B * n, H * d_head) and r (B * U, H * d_head); E_q is E, or 0 when
    vis has only sentence queries.
    """
    n_docs, _, n_sent, n = vis.mask.shape
    rows = vis.n_queries
    n_heads, d_head = heads.u.shape
    scale = 1.0 / math.sqrt(d_head)
    q = _query_rows(x, n, rows) @ heads.W_q
    k = x @ heads.W_k
    r = pe @ heads.W_r
    q4 = _split_heads(q, rows, n_heads)
    qu = q4 + heads.u[:, None, :]
    qv = q4 + heads.v[:, None, :]
    k4 = _split_heads(k, n, n_heads)
    r4 = _split_heads(r, len(r) // n_docs, n_heads).swapaxes(-1, -2)
    s = qu[:, :, :n_sent] @ k4.swapaxes(-1, -2)
    s += (qv[:, :, :n_sent] @ r4).ravel()[vis.cols]
    s *= scale
    if rows == n_sent:  # no edge queries
        return s, np.empty(vis.edge_cols.shape, s.dtype), (q, k, r)
    se = (qv[:, :, n_sent:] @ r4[..., :vis.n_edge_tuples]).ravel()[
        vis.tuple_cols]
    se += (qu[:, :, n_sent:] @ k4.swapaxes(-1, -2)).ravel()[vis.edge_cols]
    se *= scale
    return s, se, (q, k, r)


def _edge_block(w: np.ndarray, vis: Visibility, n: int) -> np.ndarray:
    """(B, H, E, n) array holding each edge row's w (B, H, E, 3) at its
    three keys, zero elsewhere."""
    out = np.zeros(w.shape[:3] + (n,), w.dtype)
    out.ravel()[vis.edge_cols] = w
    return out


def head_forward(x: np.ndarray, pe: np.ndarray, vis: Visibility,
                 heads: HeadParams):
    """Every head's attention output on the query rows, concatenated to
    (B * vis.n_queries, H * d_head), and the cache head_backward reads:
    vis, the projections and the attention probabilities of the sentence
    rows (B, H, S, n) and edge query rows (B, H, E_q, 3)."""
    s, se, (q, k, r) = head_scores(x, pe, vis, heads)
    n_heads, n_sent, n = s.shape[1:]
    rows = vis.n_queries
    # every sentence row sees itself, so no row of the mask is empty
    probs = softmax(s + vis.mask)
    v_mat = x @ heads.W_v
    v4 = _split_heads(v_mat, n, n_heads)
    out = np.empty((len(s), rows, n_heads, v4.shape[-1]), v4.dtype)
    out[:, :n_sent] = (probs @ v4).swapaxes(1, 2)
    probs_e = se
    if rows > n_sent:
        probs_e = softmax(se)
        out[:, n_sent:] = (_edge_block(probs_e, vis, n) @ v4).swapaxes(1, 2)
    return (out.reshape(len(s) * rows, -1),
            (vis, q, k, v_mat, r, probs, probs_e))


def _softmax_backward(dprobs: np.ndarray, probs: np.ndarray,
                      scale: float) -> np.ndarray:
    """Score gradient of a scaled softmax, in place on dprobs:
    scale * probs * (dprobs - rowsum(dprobs * probs))."""
    dprobs -= (dprobs * probs).sum(axis=-1, keepdims=True)
    dprobs *= probs
    dprobs *= scale
    return dprobs


def head_backward(dout: np.ndarray, cache: tuple, x: np.ndarray,
                  pe: np.ndarray, heads: HeadParams, dx: np.ndarray,
                  dpe: np.ndarray) -> HeadParams:
    """Reverse of head_forward for the output gradient dout
    (B * n_queries, H * d_head).

    Adds the gradients of x (B * n, d_model) and of the tuple embeddings
    pe (B * U, d_model) into dx and dpe in place: the query gradient into
    each document's query rows, the key and value gradients into all rows.
    Returns the parameter gradients, summed over the chunk, laid out as
    heads is.
    """
    vis, q, k, v_mat, r, probs, probs_e = cache
    n_docs, n_heads, n_sent, n = probs.shape
    rows = vis.n_queries
    n_tuples, n_et = len(r) // n_docs, vis.n_edge_tuples
    scale = 1.0 / math.sqrt(heads.u.shape[1])
    q4 = _split_heads(q, rows, n_heads)
    qu = q4 + heads.u[:, None, :]
    qv = q4 + heads.v[:, None, :]
    k4 = _split_heads(k, n, n_heads)
    v4 = _split_heads(v_mat, n, n_heads)
    r4 = _split_heads(r, n_tuples, n_heads)
    dout = _split_heads(dout, rows, n_heads)
    dq = np.empty_like(dout)

    # sentence rows. The query gradient splits into the content term's,
    # whose row sum is u's gradient, and the position term's, whose row sum
    # is v's; pairs of one query that share a distance tuple share r_c, so
    # their score gradients are summed onto (B, H, S, U), in float64 by
    # bincount and cast back
    dout_s = dout[:, :, :n_sent]
    dv = probs.swapaxes(-1, -2) @ dout_s
    ds = _softmax_backward(dout_s @ v4.swapaxes(-1, -2), probs, scale)
    seg = np.bincount(vis.cols.ravel(), weights=ds.ravel(),
                      minlength=ds.size // n * n_tuples).astype(
                          ds.dtype, copy=False).reshape(
                              ds.shape[:3] + (n_tuples,))
    content = ds @ k4
    position = seg @ r4
    dq[:, :, :n_sent] = content + position
    grad_u = content.sum(axis=(0, 2))
    grad_v_bias = position.sum(axis=(0, 2))
    dr = seg.swapaxes(-1, -2) @ qv[:, :, :n_sent]
    dk = ds.swapaxes(-1, -2) @ qu[:, :, :n_sent]
    del seg, ds

    # edge query rows: the same on their three keys, spread over an (E, n)
    # block, and on the edge tuples
    if rows > n_sent:
        dout_e = dout[:, :, n_sent:]
        dv += _edge_block(probs_e, vis, n).swapaxes(-1, -2) @ dout_e
        dse = _softmax_backward(
            (dout_e @ v4.swapaxes(-1, -2)).ravel()[vis.edge_cols], probs_e,
            scale)
        block = _edge_block(dse, vis, n)
        seg = np.bincount(vis.tuple_cols.ravel(), weights=dse.ravel(),
                          minlength=dse.size // 3 * n_et).astype(
                              dse.dtype, copy=False).reshape(
                                  dse.shape[:3] + (n_et,))
        content = block @ k4
        position = seg @ r4[:, :, :n_et]
        dq[:, :, n_sent:] = content + position
        grad_u += content.sum(axis=(0, 2))
        grad_v_bias += position.sum(axis=(0, 2))
        dr[:, :, :n_et] += seg.swapaxes(-1, -2) @ qv[:, :, n_sent:]
        dk += block.swapaxes(-1, -2) @ qu[:, :, n_sent:]

    dq, dk, dv, dr = (_merge_heads(dq), _merge_heads(dk), _merge_heads(dv),
                      _merge_heads(dr))
    dxq = dq @ heads.W_q.T
    if rows == n:
        dx += dxq
    else:
        dx.reshape(n_docs, n, -1)[:, :rows] += dxq.reshape(n_docs, rows, -1)
    dx += dk @ heads.W_k.T
    dx += dv @ heads.W_v.T
    dpe += dr @ heads.W_r.T
    return HeadParams(
        W_q=_query_rows(x, n, rows).T @ dq, W_k=x.T @ dk, W_r=pe.T @ dr,
        W_v=x.T @ dv, u=grad_u, v=grad_v_bias)


def chunk_visibility(contexts: list[SequenceContext], n_heads: int,
                     dtype=np.float64):
    """The Visibility of contexts run as one chunk, its additive mask in
    dtype, and the distance tuples pos_rows (B * U, 4) it indexes. Each
    document's sentences, edges and tuples are padded to the chunk's most S,
    E and U: document b's tuples are rows b * U on, as its context lays them
    out, then repeats of its first, which no pair maps to."""
    n_docs = len(contexts)
    n_sent = max(len(ctx.sentences) for ctx in contexts)
    n = n_sent + max(len(ctx.edge_pos) for ctx in contexts)
    n_et = max(ctx.n_edge_tuples for ctx in contexts)
    n_tuples = max(len(ctx.pos_rows) for ctx in contexts)
    pos_rows = np.empty((n_docs, n_tuples, 4), np.intp)
    # a padded sentence slot sees only itself; an edge slot's first key
    # is itself, and a padded one's are all itself. A masked or padded
    # pair's term is masked out, so its tuple may be any of its block's
    visible = np.zeros((n_docs, n_sent, n), dtype=bool)
    visible[:, np.arange(n_sent), np.arange(n_sent)] = True
    edge_keys = np.tile(np.arange(n_sent, n)[:, None], (n_docs, 1, 3))
    pos = np.zeros(visible.shape, dtype=np.intp)
    edge_pos = np.zeros(edge_keys.shape, dtype=np.intp)
    for b, ctx in enumerate(contexts):
        s, e = len(ctx.sentences), len(ctx.edge_pos)
        visible[b, :s, :s] = ctx.visible[:, :s]
        visible[b, :s, n_sent:n_sent + e] = ctx.visible[:, s:]
        pos[b, :s, :s] = ctx.sentence_pos[:, :s]
        pos[b, :s, n_sent:n_sent + e] = ctx.sentence_pos[:, s:]
        edge_keys[b, :e, 1:] = ctx.edge_keys[:, 1:]
        edge_pos[b, :e] = ctx.edge_pos
        pos_rows[b] = ctx.pos_rows[0]
        pos_rows[b, :len(ctx.pos_rows)] = ctx.pos_rows
    pos_rows = pos_rows.reshape(-1, 4)

    # the flat (document, head, row) index of each query row of a block
    sentence_rows = np.arange(n_docs * n_heads * n_sent).reshape(
        n_docs, n_heads, n_sent, 1)
    edge_rows = np.arange(n_docs * n_heads * (n - n_sent)).reshape(
        n_docs, n_heads, n - n_sent, 1)
    return Visibility(
        mask=np.where(visible, 0.0, MASKED).astype(dtype, copy=False)[:, None],
        cols=sentence_rows * n_tuples + pos[:, None],
        edge_cols=edge_rows * n + edge_keys[:, None],
        tuple_cols=edge_rows * n_et + edge_pos[:, None],
        n_edge_tuples=n_et), pos_rows


def chunk_order(shapes: list[tuple[int, int]],
                d_model: int) -> list[list[int]]:
    """Split batch positions, given each document's (S, E) sentences and
    edges, into chunks: greedily, in stable ascending length S + E order,
    closing a chunk before its document count times its most S plus most
    E, the rows chunk_visibility pads it to, would exceed the row budget
    at d_model (see PAD_ROW_BUDGET). A document longer than half of it
    runs alone."""
    budget = min(PAD_ROW_BUDGET, PAD_VALUE_BUDGET // d_model)
    chunks: list[list[int]] = []
    most_s = most_e = 0
    for i in sorted(range(len(shapes)), key=lambda i: sum(shapes[i])):
        s, e = shapes[i]
        if chunks and ((len(chunks[-1]) + 1)
                       * (max(most_s, s) + max(most_e, e)) <= budget):
            chunks[-1].append(i)
            most_s, most_e = max(most_s, s), max(most_e, e)
        else:
            chunks.append([i])
            most_s, most_e = s, e
    return chunks


def _context_shapes(contexts: list[SequenceContext]) -> list[tuple[int, int]]:
    return [(len(ctx.sentences), len(ctx.edge_pos)) for ctx in contexts]


def _sequence_shape(seq: FlatSequence) -> tuple[int, int]:
    """(S, E) of a sequence not yet prepared, counted as prepare lays it out."""
    n_sent = sum(el.kind is ElementKind.SENTENCE for el in seq.elements)
    return n_sent, len(seq) - n_sent


# ---------------------------------------------------------------------------
# dropout


class DropoutStream:
    """Counter-based deterministic dropout masks of one training step.

    Document b's masks for every layer of the step come from one draw: the
    Philox stream keyed by (seed, keyed.DROPOUT) at counter (0, epoch, step,
    b), so they depend only on those coordinates, never on chunking or draw
    order. The draw's units are laid out, with L the model's layers, n the
    document's rows and S its sentence rows, each row d_model units and
    rows in slot order:

        layers 0 to L - 2: attention, then FFN, n rows each;
        layer L - 1:       attention, then FFN, S rows each.

    Its raw 64-bit words split into two 32-bit lanes, the low half first
    (by arithmetic, so on any platform), lane i for unit i; at the model's
    config.dropout_rate, a unit is kept iff its lane >= dropout_threshold
    (rate), so P(drop) is within 2^-33 of rate, and scaled by 1 / (1 -
    rate). The lanes are integers, so a float32 and a float64 model drop
    the same units.
    """

    def __init__(self, seed: int, epoch: int = 0, step: int = 0):
        self.seed = seed
        self.epoch = epoch
        self.step = step
        self._streams = KeyedStream(seed, DROPOUT)

    def words(self, doc_index: int, n_words: int) -> np.ndarray:
        """The first n_words raw 64-bit words of document doc_index's draw."""
        return self._streams.at(self.epoch, self.step,
                                doc_index).random_raw(n_words)


def dropout_threshold(rate: float) -> int:
    """The least lane a unit kept at dropout rate has: round(rate * 2^32)."""
    return round(rate * 2 ** 32)


def keep_lanes(words: np.ndarray, threshold: int) -> np.ndarray:
    """Keep bits of the 2 * len(words) 32-bit lanes of raw 64-bit words,
    the low half of each word first: lane >= threshold."""
    keep = np.empty((len(words), 2), dtype=bool)
    # the cast keeps the low half (modulo 2^32), and a word's high half is
    # >= threshold iff the word is >= threshold * 2^32
    np.greater_equal(words.astype(np.uint32), threshold, out=keep[:, 0])
    np.greater_equal(words, threshold << 32, out=keep[:, 1])
    return keep.ravel()


def _cross_entropy(label_probs: np.ndarray) -> np.float64:
    """Summed -log of each document's probability of its label, in float64
    (a float32 probability is exact in it), floored at 1e-300."""
    return -np.log(np.maximum(label_probs.astype(np.float64, copy=False),
                              1e-300)).sum()


# ---------------------------------------------------------------------------
# the model


class FusionModel:
    """Config + parameters, with forward/backward over documents. The model
    owns its sentence encoder, built from the config. variant, which save
    records, is the fusion variant the model was trained under."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray],
                 variant: Variant = Variant.FULL):
        self.config = config
        self.params = params
        self.encoder = HashBucketSentenceEncoder(config.d_model,
                                                 config.n_token_buckets)
        self.variant = variant
        self.dtype = np.dtype(config.dtype)
        self.registry = load_registry()
        self.position_table = sinusoid_table(
            config.max_relative_distance, config.d_model).astype(
                self.dtype, copy=False)
        self._validate_shapes()

    @classmethod
    def build(cls, config: ModelConfig,
              variant: Variant = Variant.FULL) -> "FusionModel":
        check_size(config)
        return cls(config, _init_params(config), variant)

    def _validate_shapes(self) -> None:
        expected = expected_param_shapes(self.config)
        got = {name: arr.shape for name, arr in self.params.items()}
        if got != expected:
            diff = []
            for name in sorted(set(expected) | set(got)):
                e, g = expected.get(name), got.get(name)
                if e != g:
                    diff.append(f"  {name}: expected {e}, got {g}")
            raise ContractError("parameter shapes do not match config:\n"
                                + "\n".join(diff))
        wrong = sorted(name for name, arr in self.params.items()
                       if arr.dtype != self.dtype)
        if wrong:
            raise ContractError(f"parameters {', '.join(wrong)} are not of "
                                f"the config's dtype {self.config.dtype}")

    # -- parameter views ---------------------------------------------------

    def layer_heads(self, layer: int) -> HeadParams:
        """A layer's head parameters, the stored arrays themselves."""
        return HeadParams(*(self.params[f"layer{layer}/{field}"]
                            for field in _HEAD_FIELDS))

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(arr) for name, arr in self.params.items()}

    # -- preparation ---------------------------------------------------------

    def sequence_for(self, doc: Document,
                     variant: Variant = Variant.FULL) -> FlatSequence:
        seq = linearize(build_graph(doc), self.config.max_elements)
        return apply_variant(seq, variant)

    def prepare_sequence(self, doc: Document,
                         seq: FlatSequence) -> SequenceContext:
        """Extract everything parameter-independent from a flat sequence
        (any sequence of doc, such as a permuted one; never memoized).
        Raises ContractError naming the document unless every edge element
        links two distinct sentences that the sequence holds once each.
        Logs one warning naming the document and its sentences without
        tokens, if any: the encoder gives each a zero vector."""
        if len(seq) == 0:
            raise ContractError(f"document {doc.id!r}: cannot run forward on "
                                f"an empty sequence")
        sentence_rows, edge_rows, sentences = [], [], []
        lookups = {"embed/entity": ([], []), "embed/relation": ([], [])}
        for pos, el in enumerate(seq.elements):
            if el.kind is ElementKind.SENTENCE:
                sentence_rows.append(pos)
                sentences.append(self.encoder.prepare(
                    doc.sentences[el.payload - 1].tokens))
                continue
            if el.kind is ElementKind.ENTITY:
                name = "embed/entity"
                row = stable_bucket(el.payload, self.config.n_entity_buckets)
            else:
                name = "embed/relation"
                row = self.registry.sense_index(el.payload)
            lookups[name][0].append(len(edge_rows))
            lookups[name][1].append(row)
            edge_rows.append(pos)
        empty = [seq.elements[pos].payload
                 for pos, tokens in zip(sentence_rows, sentences)
                 if tokens.size == 0]
        if empty:
            logger.warning("document %r: sentence(s) %s have no tokens; "
                           "each is encoded as a zero vector", doc.id,
                           ", ".join(map(str, empty)))
        slot = {seq.elements[pos].start: s
                for s, pos in enumerate(sentence_rows)}
        if len(slot) < len(sentence_rows):
            raise ContractError(f"document {doc.id!r}: two sentence elements "
                                f"share a sentence index")
        edge_keys = []
        for pos in edge_rows:
            el = seq.elements[pos]
            if el.start == el.end or el.start not in slot or el.end not in slot:
                raise ContractError(
                    f"document {doc.id!r}: edge element {pos} at "
                    f"({el.start}, {el.end}) does not link two sentences of "
                    f"its sequence")
            edge_keys.append((len(sentence_rows) + len(edge_keys),
                              slot[el.start], slot[el.end]))

        n_sent = len(sentence_rows)
        order = np.array(sentence_rows + edge_rows, dtype=np.intp)
        edge_keys = np.array(edge_keys, dtype=np.intp).reshape(-1, 3)
        rows = order[:n_sent, None]
        visible = (visible_matrix(seq) == 0.0)[rows, order]
        # the distance tuples of the pairs each row sees: each edge row with
        # its three keys, then the visible sentence-row pairs. No tuple is in
        # both: a sentence row's tuple is never that of an edge row
        dist = distance_indices(seq, self.config.max_relative_distance)
        edge_tuples, edge_pos = unique_distance_rows(
            dist[order[n_sent:, None], order[edge_keys]])
        sentence_tuples, visible_pos = unique_distance_rows(
            dist[rows, order][visible])
        sentence_pos = np.zeros(visible.shape, dtype=np.intp)
        sentence_pos[visible] = visible_pos + len(edge_tuples)
        for tokens in sentences:
            _read_only(tokens)
        return SequenceContext(
            seq=seq,
            visible=_read_only(visible),
            sentence_pos=_compact(sentence_pos),
            edge_keys=_compact(edge_keys),
            edge_pos=_compact(edge_pos),
            pos_rows=_compact(np.concatenate([edge_tuples, sentence_tuples])),
            n_edge_tuples=len(edge_tuples),
            sentences=tuple(sentences),
            lookups=tuple((name, _read_only(np.array(slots, dtype=np.int64)),
                           _read_only(np.array(ids, dtype=np.int64)))
                          for name, (slots, ids) in lookups.items()),
            label=int(doc.label) if doc.label is not None else None,
            doc_id=doc.id)

    def _kept(self, doc: Document, variant: Variant) -> SequenceContext | None:
        entry = _CONTEXTS.get(id(doc))
        return None if entry is None else entry.get((variant, self.config))

    def prepare(self, doc: Document, variant: Variant = Variant.FULL,
                seq: FlatSequence | None = None) -> SequenceContext:
        """doc's context under variant. A kept context is returned as is.
        Otherwise, without seq, one is prepared and kept: the same object
        for every model with this config, until the document is
        collected. With seq (doc's sequence_for(variant), built
        by the caller) it is prepared from seq and not kept."""
        ctx = self._kept(doc, variant)
        if ctx is not None:
            return ctx
        if seq is not None:
            return self.prepare_sequence(doc, seq)
        entry = _CONTEXTS.get(id(doc))
        if entry is None:
            entry = _CONTEXTS[id(doc)] = {}
            weakref.finalize(doc, _CONTEXTS.pop, id(doc), None)
        ctx = entry[(variant, self.config)] = self.prepare_sequence(
            doc, self.sequence_for(doc, variant))
        return ctx

    # -- embedding ---------------------------------------------------------

    def _embed(self, contexts: list[SequenceContext], n_sent: int, n: int):
        """Element embeddings (B * n, d_model) of a chunk laid out in n rows
        per document, sentences from row 0 and edges from row n_sent, zero
        on the padding, and the (row, source) index _embed_backward reads:
        one encoder call and one gather per table for the chunk."""
        offsets = range(0, len(contexts) * n, n)
        x = np.zeros((len(contexts) * n, self.config.d_model), self.dtype)
        sentence_rows = np.concatenate(
            [np.arange(off, off + len(ctx.sentences))
             for ctx, off in zip(contexts, offsets)])
        sentences = [tokens for ctx in contexts for tokens in ctx.sentences]
        x[sentence_rows] = self.encoder.encode_prepared(sentences, self.params)
        lookups = []
        for t, (name, _, _) in enumerate(contexts[0].lookups):
            rows = np.concatenate([ctx.lookups[t][1] + (off + n_sent)
                                   for ctx, off in zip(contexts, offsets)])
            ids = np.concatenate([ctx.lookups[t][2] for ctx in contexts])
            x[rows] = self.params[name][ids]
            lookups.append((name, rows, ids))
        return x, (sentence_rows, sentences, lookups)

    def _embed_backward(self, dx: np.ndarray, index,
                        grads: dict[str, np.ndarray]) -> None:
        sentence_rows, sentences, lookups = index
        self.encoder.accumulate_grad_prepared(sentences, dx[sentence_rows],
                                              grads)
        for name, rows, ids in lookups:
            add_rows_at(grads[name], ids, dx[rows])

    # -- forward -----------------------------------------------------------

    def forward_context(self, contexts: SequenceContext | list[SequenceContext],
                        dropout: DropoutStream | None = None,
                        doc_index: int | list[int] | None = None):
        """Forward pass over prepared contexts; returns (logits, pooled,
        cache). A dropout stream means training: given one, and a config
        dropout_rate above 0, the layers apply its masks; without one the
        pass is the eval pass.

        Given one SequenceContext, it runs as a chunk of one: logits is
        (N_CLASSES,), pooled (d_model,) and doc_index (default 0) its dropout
        key. Given a list, the contexts run as one chunk padded to the
        longest: logits is (B, N_CLASSES), pooled (B, d_model), and
        doc_index lists each one's dropout key, its position in the training
        batch (default: its position in the list).
        """
        if isinstance(contexts, SequenceContext):
            logits, pooled, cache = self._forward_chunk(
                [contexts], dropout, [doc_index or 0])
            return logits[0], pooled[0], cache
        if doc_index is None:
            doc_index = list(range(len(contexts)))
        return self._forward_chunk(contexts, dropout, doc_index)

    def _forward_chunk(self, contexts: list[SequenceContext],
                       dropout: DropoutStream | None, doc_indices: list[int]):
        """forward_context over a list: pack, embed, draw every layer's
        dropout masks at once, run the layers, pool the mean of each
        document's sentence outputs."""
        cfg = self.config
        vis, pos_rows = chunk_visibility(contexts, cfg.n_heads, self.dtype)
        n_docs, _, n_sent, n = vis.mask.shape
        pool = np.zeros((n_docs, n_sent), self.dtype)
        for b, ctx in enumerate(contexts):
            pool[b, :len(ctx.sentences)] = 1.0 / len(ctx.sentences)
        x, embed_index = self._embed(contexts, n_sent, n)

        feats, pe = position_embedding(self.position_table, pos_rows,
                                       self.params["pos/W_p"])

        keep = (self._dropout_keep(dropout, doc_indices, contexts, n_sent, n)
                if dropout is not None and cfg.dropout_rate > 0.0
                else [None] * cfg.n_layers)
        # the classifier pools only sentence rows, so the last layer runs
        # only those as queries
        layer_caches = []
        for l in range(cfg.n_layers):
            if l == cfg.n_layers - 1:
                vis = vis.sentence_queries()
            x, layer_cache = self._forward_layer(x, pe, vis, l, keep[l])
            if not np.isfinite(x).all():
                bad = np.unique(np.nonzero(~np.isfinite(x))[0]
                                // vis.n_queries)
                raise NumericalError(
                    f"non-finite activations after layer {l} in document(s) "
                    f"{', '.join(repr(contexts[b].doc_id) for b in bad)}")
            layer_caches.append(layer_cache)

        pooled = (pool[:, None, :] @ x.reshape(n_docs, n_sent,
                                               cfg.d_model))[:, 0, :]
        logits = pooled @ self.params["clf/W"] + self.params["clf/b"]

        cache = {
            "embed": embed_index, "feats": feats, "pe": pe,
            "layers": layer_caches, "x_out": x, "pool": pool, "pooled": pooled,
        }
        return logits, pooled, cache

    def forward(self, doc: Document, variant: Variant = Variant.FULL,
                dropout: DropoutStream | None = None, doc_index: int = 0):
        """build graph -> linearize -> filter -> fusion layers -> classifier."""
        logits, pooled, _ = self.forward_context(
            self.prepare(doc, variant), dropout, doc_index)
        return logits, pooled

    def _dropout_keep(self, dropout: DropoutStream, doc_indices: list[int],
                      contexts: list[SequenceContext], n_sent: int,
                      n: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Every layer's (attention, FFN) inverted-dropout masks for a chunk
        laid out in n rows per document (sentences from row 0, edges from
        row n_sent), in the model's dtype: 0 or 1 / (1 - rate) at the
        config's dropout rate, and 0 on the padding. A layer but the last
        gets (B * n, d_model) masks, the last (B * n_sent, d_model). Document b's are its one draw at
        doc_indices[b], laid out as DropoutStream says."""
        inner, d = self.config.n_layers - 1, self.config.d_model
        rate = self.config.dropout_rate
        n_docs = len(contexts)
        sizes = [2 * d * (inner * len(ctx.seq) + len(ctx.sentences))
                 for ctx in contexts]
        # sizes are even: a document's units fill its words' lanes
        bits = keep_lanes(np.concatenate(
            [dropout.words(i, size // 2)
             for i, size in zip(doc_indices, sizes)]), dropout_threshold(rate))
        keep = np.zeros(2 * n_docs * d * (inner * n + n_sent), dtype=bool)
        split = 2 * n_docs * d * inner * n
        body = keep[:split].reshape(inner, 2, n_docs, n, d)
        last = keep[split:].reshape(2, n_docs, n_sent, d)
        start = 0
        for b, (ctx, size) in enumerate(zip(contexts, sizes)):
            s, m = len(ctx.sentences), len(ctx.seq)
            own = bits[start:start + size]
            start += size
            blocks = own[:2 * d * inner * m].reshape(inner, 2, m, d)
            body[:, :, b, :s] = blocks[:, :, :s]
            body[:, :, b, n_sent:n_sent + m - s] = blocks[:, :, s:]
            last[:, b, :s] = own[2 * d * inner * m:].reshape(2, s, d)
        keep = np.multiply(keep, 1.0 / (1.0 - rate), dtype=self.dtype)
        return ([tuple(layer) for layer in
                 keep[:split].reshape(inner, 2, n_docs * n, d)]
                + [tuple(keep[split:].reshape(2, n_docs * n_sent, d))])

    def _forward_layer(self, x: np.ndarray, pe: np.ndarray, vis: Visibility,
                       layer: int, keep: tuple | None):
        """One layer over a chunk: x (B * n, d_model) in, its
        vis.n_queries query rows per document out; keep is None or the
        (attention, FFN) dropout masks."""
        p = self.params
        concat, head_cache = head_forward(x, pe, vis, self.layer_heads(layer))

        attn = concat @ p[f"layer{layer}/W_o"] + p[f"layer{layer}/b_o"]
        if keep is not None:
            attn *= keep[0]
        y, ln1_cache = layer_norm_forward(
            _query_rows(x, vis.mask.shape[3], vis.n_queries) + attn,
            p[f"layer{layer}/ln1/gamma"], p[f"layer{layer}/ln1/beta"])

        hidden = _softplus(y @ p[f"layer{layer}/ffn/W1"]
                           + p[f"layer{layer}/ffn/b1"])
        ffn = hidden @ p[f"layer{layer}/ffn/W2"] + p[f"layer{layer}/ffn/b2"]
        if keep is not None:
            ffn *= keep[1]
        out, ln2_cache = layer_norm_forward(
            y + ffn, p[f"layer{layer}/ln2/gamma"], p[f"layer{layer}/ln2/beta"])

        cache = {
            "x_in": x, "heads": head_cache, "concat": concat,
            "keep": keep, "ln1": ln1_cache, "hidden": hidden,
            "ln2": ln2_cache,
        }
        return out, cache

    # -- backward ----------------------------------------------------------

    def backward_from_logits(self, dlogits: np.ndarray, cache: dict,
                             grads: dict[str, np.ndarray]) -> None:
        """Accumulate parameter gradients for a chunk's forward cache, given
        dlogits (B, N_CLASSES), one row per document of the chunk."""
        cfg = self.config
        p = self.params
        n_docs, rows = cache["pool"].shape

        grads["clf/W"] += cache["pooled"].T @ dlogits
        grads["clf/b"] += dlogits.sum(axis=0)
        dpooled = dlogits @ p["clf/W"].T
        dx = (cache["pool"][:, :, None] * dpooled[:, None, :]).reshape(
            n_docs * rows, cfg.d_model)

        dpe = np.zeros_like(cache["pe"])
        for l in reversed(range(cfg.n_layers)):
            dx = self._backward_layer(dx, cache["layers"][l], cache["pe"],
                                      dpe, l, grads)

        # position projection: pe = feats @ W_p
        grads["pos/W_p"] += cache["feats"].T @ dpe

        self._embed_backward(dx, cache["embed"], grads)

    def _backward_layer(self, dout: np.ndarray, cache: dict, pe: np.ndarray,
                        dpe: np.ndarray, layer: int,
                        grads: dict[str, np.ndarray]) -> np.ndarray:
        p = self.params

        # each gradient is accumulated in place into the array the LayerNorm
        # backward returned; a dropout-free branch gradient aliases it and is
        # consumed before the first in-place update
        dy, dg2, db2 = layer_norm_backward(dout, cache["ln2"])
        grads[f"layer{layer}/ln2/gamma"] += dg2
        grads[f"layer{layer}/ln2/beta"] += db2
        keep = cache["keep"]
        dffn = dy if keep is None else dy * keep[1]

        grads[f"layer{layer}/ffn/W2"] += cache["hidden"].T @ dffn
        grads[f"layer{layer}/ffn/b2"] += dffn.sum(axis=0)
        dz1 = ((dffn @ p[f"layer{layer}/ffn/W2"].T)
               * _softplus_grad(cache["hidden"]))
        del dffn
        # the FFN input y is formed again from the LayerNorm cache, exactly
        # as the forward pass formed it, rather than held
        y = (p[f"layer{layer}/ln1/gamma"] * cache["ln1"][0]
             + p[f"layer{layer}/ln1/beta"])
        grads[f"layer{layer}/ffn/W1"] += y.T @ dz1
        del y
        grads[f"layer{layer}/ffn/b1"] += dz1.sum(axis=0)
        dy += dz1 @ p[f"layer{layer}/ffn/W1"].T
        del dz1

        dx, dg1, db1 = layer_norm_backward(dy, cache["ln1"])
        del dy
        grads[f"layer{layer}/ln1/gamma"] += dg1
        grads[f"layer{layer}/ln1/beta"] += db1
        dattn = dx if keep is None else dx * keep[0]

        grads[f"layer{layer}/W_o"] += cache["concat"].T @ dattn
        grads[f"layer{layer}/b_o"] += dattn.sum(axis=0)
        dconcat = dattn @ p[f"layer{layer}/W_o"].T
        del dattn
        # the residual carries the gradient of the query rows only; the
        # keys and values reach every row
        vis = cache["heads"][0]
        n_docs, n, rows = vis.mask.shape[0], vis.mask.shape[3], vis.n_queries
        if rows < n:
            dres, dx = dx, np.zeros_like(cache["x_in"])
            dx.reshape(n_docs, n, -1)[:, :rows] = dres.reshape(
                n_docs, rows, -1)

        dheads = head_backward(dconcat, cache["heads"], cache["x_in"], pe,
                               self.layer_heads(layer), dx, dpe)
        for field in _HEAD_FIELDS:
            grads[f"layer{layer}/{field}"] += getattr(dheads, field)
        return dx

    # -- loss --------------------------------------------------------------

    def loss_and_grad_contexts(self, contexts: list[SequenceContext],
                               dropout: DropoutStream | None = None,
                               out_predictions: list[int] | None = None):
        """Mean cross-entropy over prepared contexts plus full gradients.

        Contexts run in the chunks of chunk_order, and losses and gradients
        are reduced chunk by chunk in that fixed order, so the result is a
        deterministic function of the batch and independent of any
        external parallelism. Document b's dropout masks are keyed by b.
        The loss is a Python float, summed in float64 at either dtype.
        Without a dropout stream it is the eval loss.
        """
        if not contexts:
            raise ContractError("empty batch")
        for ctx in contexts:
            if ctx.label is None:
                raise ContractError(f"document {ctx.doc_id!r} is unlabeled")
        labels = np.array([ctx.label for ctx in contexts])
        grads = self.zero_grads()
        total = 0.0
        predictions = np.empty(len(contexts), dtype=np.int64)
        for chunk in chunk_order(_context_shapes(contexts),
                                 self.config.d_model):
            logits, _, cache = self.forward_context(
                [contexts[i] for i in chunk], dropout=dropout, doc_index=chunk)
            probs = softmax(logits)
            rows = np.arange(len(chunk))
            total += _cross_entropy(probs[rows, labels[chunk]])
            predictions[chunk] = logits.argmax(axis=1)
            dlogits = probs
            dlogits[rows, labels[chunk]] -= 1.0
            dlogits /= len(contexts)
            self.backward_from_logits(dlogits, cache, grads)
            del cache  # one chunk's activations alive at a time
        loss = float(total / len(contexts))
        if not math.isfinite(loss):
            raise NumericalError("non-finite loss")
        if out_predictions is not None:
            out_predictions.extend(int(pred) for pred in predictions)
        return loss, grads

    def predict(self, docs: list[Document],
                variant: Variant = Variant.FULL) -> list[int]:
        """Predicted class per document, run in the chunks of chunk_order.
        A document with a kept context (one a fit or forward prepared) uses
        it; any other is linearized here and prepared just before its chunk
        runs, without being kept, so predicting a corpus of fresh documents
        holds one chunk of contexts and activations at a time."""
        kept = [self._kept(doc, variant) for doc in docs]
        seqs = [self.sequence_for(doc, variant) if ctx is None else ctx.seq
                for doc, ctx in zip(docs, kept)]
        out = [0] * len(docs)
        for chunk in chunk_order([_sequence_shape(seq) for seq in seqs],
                                 self.config.d_model):
            try:
                logits, _, _ = self.forward_context(
                    [self.prepare(docs[i], variant, seqs[i]) for i in chunk])
            except MemoryError as exc:
                raise MemoryError(
                    "out of memory predicting document(s) "
                    + ", ".join(repr(docs[i].id) for i in chunk)) from exc
            for i, pred in zip(chunk, logits.argmax(axis=1)):
                out[i] = int(pred)
        return out

    # -- checkpointing -------------------------------------------------------

    MAGIC = b"CGFUSION\n"
    FORMAT_VERSION = 3

    def save(self, path: str | Path) -> None:
        """Versioned binary dump: JSON header (config, training variant,
        shape and dtype table) + raw little-endian tensor bytes in header
        order, each in the model's dtype. Contains no timestamps, so
        identical models serialize to identical bytes."""
        names = sorted(self.params)
        header = {
            "format_version": self.FORMAT_VERSION,
            "config": self.config.to_dict(),
            "variant": self.variant.value,
            "tensors": [{"name": name,
                         "shape": list(self.params[name].shape),
                         "dtype": self.config.dtype} for name in names],
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        stored = np.dtype(self.config.dtype).newbyteorder("<")
        with open(path, "wb") as fh:
            fh.write(self.MAGIC)
            fh.write(len(blob).to_bytes(8, "big"))
            fh.write(blob)
            for name in names:
                fh.write(np.ascontiguousarray(
                    self.params[name], dtype=stored).tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "FusionModel":
        """Read a checkpoint written by save(), or a format 2 one, whose
        config records no dtype and whose tensors are float64. A retired
        config field (see RETIRED_FIELDS) at its one value is dropped. A
        malformed file, a retired field at another value, a variant other
        than a fusion one, or a config that check_size refuses or whose
        tensor count is not the header's raises ContractError naming the
        path, before any tensor is read."""
        with open(path, "rb") as fh:
            if fh.read(len(cls.MAGIC)) != cls.MAGIC:
                raise ContractError(f"{path}: not a fusion checkpoint")
            size = int.from_bytes(fh.read(8), "big")
            if size > os.fstat(fh.fileno()).st_size:
                raise ContractError(f"{path}: header of {size} bytes is "
                                    f"longer than the file")
            try:
                header = json.loads(fh.read(size).decode("utf-8"))
            except ValueError as exc:  # invalid UTF-8 or JSON
                raise ContractError(f"{path}: unreadable header: {exc}") from exc
            if not isinstance(header, dict):
                raise ContractError(f"{path}: header is not a JSON object")
            version = header.get("format_version")
            if version not in (2, cls.FORMAT_VERSION):
                raise ContractError(f"{path}: unsupported checkpoint version "
                                    f"{version}")
            try:
                config = header["config"]
                if version == 2:
                    config = dict(config, dtype="float64")
                config = ModelConfig.from_dict(config)
                table = [(str(t["name"]), tuple(t["shape"]),
                          str(t["dtype"]) if version == 3 else "float64")
                         for t in header["tensors"]]
                variant = Variant(header["variant"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ContractError(f"{path}: malformed header: "
                                    f"{type(exc).__name__}: {exc}") from exc
            if variant not in FUSION_VARIANTS:
                raise ContractError(
                    f"{path}: variant {variant.value} is prompt-only; a "
                    f"fusion model has one of "
                    f"{', '.join(v.value for v in FUSION_VARIANTS)}")
            try:
                n_tensors = check_size(config)
            except ContractError as exc:
                raise ContractError(f"{path}: {exc}") from exc
            listed = len({name for name, _, _ in table})
            if listed != n_tensors:
                raise ContractError(f"{path}: header lists {listed} distinct "
                                    f"tensors, the config has {n_tensors}")
            expected = expected_param_shapes(config)
            # little-endian, in the config's dtype, which every tensor's
            # must equal; format 2 holds float64 only
            stored = np.dtype(config.dtype).newbyteorder("<")
            params: dict[str, np.ndarray] = {}
            for name, shape, dtype in table:
                if name in params:
                    raise ContractError(f"{path}: duplicate tensor {name}")
                if expected.get(name) != shape:
                    raise ContractError(
                        f"{path}: tensor {name} shape {shape} does not match "
                        f"config expectation {expected.get(name)}")
                if dtype != config.dtype:
                    raise ContractError(
                        f"{path}: tensor {name} is {dtype!r}, but the "
                        f"config's dtype is {config.dtype}")
                nbytes = stored.itemsize * math.prod(expected[name])
                data = fh.read(nbytes)
                if len(data) != nbytes:
                    raise ContractError(f"{path}: tensor {name} is truncated")
                params[name] = np.frombuffer(data, dtype=stored).reshape(
                    expected[name]).astype(config.dtype)
            if fh.read(1):
                raise ContractError(f"{path}: trailing bytes after the last tensor")
        return cls(config, params, variant)
