"""Position-aware fusion transformer over flat sequences, with hand-written
reverse-mode gradients.

Everything is float64 numpy. Parameters live in a flat name -> array dict so
the optimizer, checkpointing, and finite-difference checks can enumerate them
uniformly. The attention score between elements i and j is

    A_ij = q_i k_j^T + q_i r_ij^T + u k_j^T + v r_ij^T

with q, k from the element embeddings, r_ij from the pairwise relative
position embedding, and u, v trainable biases; scores are scaled by
1/sqrt(d_head) (switchable) and passed through a visibility-masked softmax.
All heads of a layer run as one batch axis of the kernel head_forward /
head_backward, and head_scores is the only place the score is formed. Each
layer then applies the standard value mixing, output projection, post-norm
residuals, and a rectified feed-forward block.

r_ij depends on the pair only through its clipped distance tuple, and a
document of n elements has U of those (about 2n to 3n), so the position
path runs on U rows: the embeddings are projected once per tuple, each head
projects r on the U rows and gathers its (n, U) position scores per pair,
and backward sums the pair gradients onto the U rows. Nothing of shape
(n * n, d_model) is formed.

Per-document structure (sequence, visibility, distinct distance tuples and
each pair's tuple, token buckets) is independent of the parameters, so it
is prepared once into a read-only SequenceContext. FusionModel.prepare is
the one way in: it keeps each context for as long as its document is
alive, keyed by the document's identity, the variant, the ModelConfig and
the encoder's class, so every fit, fold and forward call in a process with
that config shares it, and predict reuses it. predict keeps nothing it
prepares itself: a document no fit has seen is prepared with its chunk.

Documents run through the layers in chunks: chunk_order walks a batch in
stable ascending length order and closes a chunk before B documents padded
to the longest one, n_max, would exceed PAD_ROW_BUDGET rows. A chunk is one
call per projection, score, softmax, FFN and LayerNorm of each layer, with
documents and heads as batch axes, and its position path runs on the
distinct distance tuples of all its documents, which for documents of
similar length are about those of the longest one. Each document keeps its
own mask: padded keys are masked for every query, and a padded query row
sees only itself, so padding never changes a real row and receives exactly
zero gradient. forward_context runs one context as a chunk of one on the
same path.

Activations are bounded per chunk, not per batch: one chunk's cache is
alive at a time, and it holds about B * n_max rows of layer activations and
the (B, H, n_max, n_max) probabilities per layer, with B * n_max <=
PAD_ROW_BUDGET; the (B, H, n_max, U) position scores exist only while a
layer runs. A document longer than half the budget runs alone, so every
document of more than 48 elements keeps the shapes and memory it has on its
own.

Kept contexts are bounded per live document instead: while a document of
n elements with U distinct distance tuples is alive, each (variant,
config, encoder class) a fit or forward prepared it under holds n * n
bytes of visibility (bool), n * n * itemsize bytes of pos_inv (the
smallest unsigned dtype holding U - 1: 1 byte up to U = 256, 2 up to
65,536) and O(n + U) for the sequence, token buckets and tuple rows, under
128 bytes per element and tuple (about 72 measured on 140-150-element
documents). Dropping the document drops its contexts.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..documents import Document
from ..flat import ElementKind, FlatSequence, apply_variant, linearize
from ..graph import build_graph
from ..relations import load_registry
from ..variants import Variant
from .config import ModelConfig
from .encoder import HashBucketSentenceEncoder, SentenceEncoder, stable_bucket
from .masking import MASKED, masked_softmax, softmax, visible_matrix
from .positions import (distance_indices, pair_columns, position_embedding,
                        sinusoid_table, unique_distance_rows)

LN_EPS = 1e-5

N_RELATION_ROWS = 30  # 15 explicit + 15 implicit senses, canonical order

# Padded rows (documents in a chunk x its longest document) one chunk may
# hold. Layer caches grow with B * n_max, so this bounds the memory of a
# chunk's forward pass; a document longer than half of it runs alone. At
# d_model 32 a training step at 96 rows costs about 5 % more CPU than at
# 128 and 15 % less than at 64, with caches bounded at three quarters of
# those at 128.
PAD_ROW_BUDGET = 96


class NumericalError(RuntimeError):
    """Non-finite value produced during computation."""


class ContractError(ValueError):
    """Caller violated an operation precondition."""


@dataclass(frozen=True)
class HeadParams:
    """The parameters of H attention heads: W_q, W_k, W_r, W_v (d_model,
    H * d_head) with head h in columns h * d_head to (h + 1) * d_head, and
    u, v (H, d_head). A single head may give u, v as (d_head,)."""

    W_q: np.ndarray
    W_k: np.ndarray
    W_r: np.ndarray
    W_v: np.ndarray
    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class SequenceContext:
    """Parameter-independent structure of one document's flat sequence.

    A context FusionModel.prepare keeps is shared by every model with the
    same config and every call on the same document, so context arrays are
    read-only, and a context holds no reference to its document. The
    (n, n) fields are stored compactly: visibility as bool, pos_inv and
    pos_rows in the smallest unsigned dtype that holds them; upcast to intp
    before any arithmetic on them."""

    seq: FlatSequence
    visible: np.ndarray       # (n, n) bool: query i may attend to key j
    pos_rows: np.ndarray      # (U, 4) sinusoid-table rows of each distinct
                              # clipped distance tuple
    pos_inv: np.ndarray       # (n, n) pair (i, j) -> its row of pos_rows
    sentence_rows: np.ndarray  # (S,) element positions of the sentences
    sentences: tuple          # encoder-prepared tokens of each of them
    lookups: tuple            # (table name, element positions, table rows)
                              # for the entity and relation elements
    label: int | None
    doc_id: str

    @property
    def mask(self) -> np.ndarray:
        """(n, n) additive visibility mask over {0, MASKED}."""
        return np.where(self.visible, 0.0, MASKED)


# FusionModel.prepare's kept contexts:
# id(document) -> {(variant, ModelConfig, encoder class): context}.
# A weakref.finalize on the document drops its entry when it is collected;
# the identity is the key because hashing a Document walks its content.
_CONTEXTS: dict[int, dict[tuple, SequenceContext]] = {}


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _compact(a: np.ndarray) -> np.ndarray:
    """a (non-negative integers) in the smallest unsigned dtype holding it,
    read-only."""
    return _read_only(a.astype(np.min_scalar_type(a.max())))


# ---------------------------------------------------------------------------
# parameter layout


def expected_param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter name and shape implied by a config (checkpoint contract)."""
    d, d_h, ffn = config.d_model, config.d_head, config.ffn_dim
    shapes: dict[str, tuple[int, ...]] = {}
    if config.encoder_trainable:
        shapes[HashBucketSentenceEncoder.PARAM_NAME] = (config.n_token_buckets, d)
    shapes["embed/entity"] = (config.n_entity_buckets, d)
    shapes["embed/relation"] = (N_RELATION_ROWS, d)
    shapes["pos/W_p"] = (4 * d, d)
    for l in range(config.n_layers):
        for h in range(config.n_heads):
            for w in ("W_q", "W_k", "W_r", "W_v"):
                shapes[f"layer{l}/head{h}/{w}"] = (d, d_h)
            if not config.share_uv:
                shapes[f"layer{l}/head{h}/u"] = (d_h,)
                shapes[f"layer{l}/head{h}/v"] = (d_h,)
        if config.share_uv:
            shapes[f"layer{l}/u"] = (d_h,)
            shapes[f"layer{l}/v"] = (d_h,)
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
    shapes["clf/W"] = (d, config.n_classes)
    shapes["clf/b"] = (config.n_classes,)
    return shapes


def _init_params(config: ModelConfig,
                 encoder: SentenceEncoder) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(np.random.PCG64(config.seed))
    d, d_h, ffn = config.d_model, config.d_head, config.ffn_dim
    params: dict[str, np.ndarray] = {}
    params.update(encoder.init_params(rng))
    params["embed/entity"] = rng.normal(0.0, 0.5, (config.n_entity_buckets, d))
    params["embed/relation"] = rng.normal(0.0, 0.5, (N_RELATION_ROWS, d))
    params["pos/W_p"] = rng.normal(0.0, 1.0 / np.sqrt(4 * d), (4 * d, d))
    for l in range(config.n_layers):
        for h in range(config.n_heads):
            for w in ("W_q", "W_k", "W_r", "W_v"):
                params[f"layer{l}/head{h}/{w}"] = rng.normal(
                    0.0, 1.0 / np.sqrt(d), (d, d_h))
            if not config.share_uv:
                params[f"layer{l}/head{h}/u"] = rng.normal(0.0, 0.1, (d_h,))
                params[f"layer{l}/head{h}/v"] = rng.normal(0.0, 0.1, (d_h,))
        if config.share_uv:
            params[f"layer{l}/u"] = rng.normal(0.0, 0.1, (d_h,))
            params[f"layer{l}/v"] = rng.normal(0.0, 0.1, (d_h,))
        params[f"layer{l}/W_o"] = rng.normal(0.0, 1.0 / np.sqrt(d), (d, d))
        params[f"layer{l}/b_o"] = np.zeros(d)
        params[f"layer{l}/ln1/gamma"] = np.ones(d)
        params[f"layer{l}/ln1/beta"] = np.zeros(d)
        params[f"layer{l}/ffn/W1"] = rng.normal(0.0, 1.0 / np.sqrt(d), (d, ffn))
        params[f"layer{l}/ffn/b1"] = np.zeros(ffn)
        params[f"layer{l}/ffn/W2"] = rng.normal(0.0, 1.0 / np.sqrt(ffn), (ffn, d))
        params[f"layer{l}/ffn/b2"] = np.zeros(d)
        params[f"layer{l}/ln2/gamma"] = np.ones(d)
        params[f"layer{l}/ln2/beta"] = np.zeros(d)
    params["clf/W"] = rng.normal(0.0, 1.0 / np.sqrt(d), (d, config.n_classes))
    params["clf/b"] = np.zeros(config.n_classes)
    return {name: np.ascontiguousarray(arr, dtype=np.float64)
            for name, arr in params.items()}


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


def _rectify(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "softplus":
        # log(1 + e^z) without overflow; several times cheaper than logaddexp
        return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    return np.maximum(z, 0.0)


def _rectify_grad(hidden: np.ndarray, kind: str) -> np.ndarray:
    """Derivative of the rectifier from its output hidden = _rectify(z):
    softplus'(z) = sigmoid(z) = 1 - exp(-softplus(z))."""
    if kind == "softplus":
        return -np.expm1(-hidden)
    return hidden > 0.0


def _split_heads(a: np.ndarray, n_rows: int, n_heads: int) -> np.ndarray:
    """(B * n_rows, H * d_head) -> (B, H, n_rows, d_head), a view."""
    return a.reshape(-1, n_rows, n_heads,
                     a.shape[-1] // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(B, H, n_rows, d_head) -> (B * n_rows, H * d_head)."""
    b, h, n_rows, d_head = a.shape
    return a.transpose(0, 2, 1, 3).reshape(b * n_rows, h * d_head)


def head_scores(x: np.ndarray, pe: np.ndarray, cols: np.ndarray,
                heads: HeadParams, scale: float):
    """Scaled four-term scores q_i.k_j + q_i.r_ij + u.k_j + v.r_ij of every
    head, before the mask, for a chunk of B documents padded to n rows:
    layer input x (B * n, d_model), the position embeddings pe (U, d_model)
    of the chunk's distinct distance tuples and cols = pair_columns(pos_inv,
    U, H), the (B, H, n, n) flat index of each pair's term in a
    (B, H, n, U) array.

    r is projected on the tuple rows only, and the two position terms,
    (q_i + v).r_c, are formed as one (B, H, n, U) product and gathered per
    pair. Returns (scores (B, H, n, n), q, k, r) with q, k (B, H, n, d_head)
    and r (1, H, U, d_head).
    """
    u, v = np.atleast_2d(heads.u), np.atleast_2d(heads.v)
    n_heads = u.shape[0]
    n = cols.shape[-1]
    q = _split_heads(x @ heads.W_q, n, n_heads)
    k = _split_heads(x @ heads.W_k, n, n_heads)
    r = _split_heads(pe @ heads.W_r, pe.shape[0], n_heads)
    s = q @ k.swapaxes(-1, -2)
    s += ((q + v[:, None, :]) @ r.swapaxes(-1, -2)).ravel()[cols]
    s += (k @ u[:, :, None]).swapaxes(-1, -2)
    s *= scale
    return s, q, k, r


def head_forward(x: np.ndarray, pe: np.ndarray, cols: np.ndarray,
                 mask: np.ndarray, heads: HeadParams, scale: float):
    """Every head's attention output, concatenated to (B * n, H * d_head),
    and the cache head_backward reads: q, k, values, r, cols and the
    masked attention probabilities (B, H, n, n). mask is (B, 1, n, n)."""
    s, q, k, r = head_scores(x, pe, cols, heads, scale)
    probs = masked_softmax(s, mask)
    v_mat = _split_heads(x @ heads.W_v, cols.shape[-1], q.shape[1])
    return _merge_heads(probs @ v_mat), (q, k, v_mat, r, cols, probs)


def head_backward(dout: np.ndarray, cache: tuple, x: np.ndarray,
                  pe: np.ndarray, heads: HeadParams, scale: float,
                  dx: np.ndarray, dpe: np.ndarray) -> HeadParams:
    """Reverse of head_forward for the output gradient dout (B * n,
    H * d_head).

    Adds the gradients of x and of the (U, d_model) tuple embeddings pe
    into dx and dpe in place and returns the parameter gradients, summed
    over the chunk, laid out as heads is.
    """
    q, k, v_mat, r, cols, probs = cache
    u, v = np.atleast_2d(heads.u), np.atleast_2d(heads.v)
    # each input gradient is folded into dx or dpe as soon as it is formed,
    # so few (B, H, n, .) arrays are alive at once
    dout = _split_heads(dout, q.shape[2], q.shape[1])
    d_in = _merge_heads(probs.swapaxes(-1, -2) @ dout)
    grad_v = x.T @ d_in
    dx += d_in @ heads.W_v.T
    # softmax backward in place on the probability gradient:
    # ds = probs * (dprobs - rowsum(dprobs * probs))
    ds = dout @ v_mat.swapaxes(-1, -2)
    ds -= (ds * probs).sum(axis=-1, keepdims=True)
    ds *= probs
    ds *= scale

    # pairs of one query that share a distance tuple share r_c, so their
    # score gradients are summed onto (B, H, n, U); bincount adds in a
    # fixed order
    seg = np.bincount(cols.ravel(), weights=ds.ravel(),
                      minlength=q.shape[0] * q.shape[1] * q.shape[2]
                      * r.shape[2]).reshape(*q.shape[:3], r.shape[2])
    d_in = _merge_heads(ds @ k + seg @ r)
    grad_q = x.T @ d_in
    dx += d_in @ heads.W_q.T
    d_in = _merge_heads((seg.swapaxes(-1, -2) @ (q + v[:, None, :])).sum(
        axis=0, keepdims=True))
    grad_r = pe.T @ d_in
    dpe += d_in @ heads.W_r.T
    grad_v_bias = (seg.sum(axis=2)[:, :, None, :] @ r).sum(axis=0)
    del seg
    col = ds.sum(axis=2)[:, :, None, :]
    d_in = _merge_heads(ds.swapaxes(-1, -2) @ q
                        + col.swapaxes(-1, -2) * u[:, None, :])
    dx += d_in @ heads.W_k.T
    return HeadParams(
        W_q=grad_q, W_k=x.T @ d_in, W_r=grad_r, W_v=grad_v,
        u=(col @ k).sum(axis=0).reshape(heads.u.shape),
        v=grad_v_bias.reshape(heads.v.shape))


def chunk_order(lengths: list[int]) -> list[list[int]]:
    """Split batch positions into chunks: greedily, in stable ascending
    length order, closing a chunk before its document count times its
    longest length would exceed PAD_ROW_BUDGET. A document longer than half
    the budget therefore always runs alone."""
    chunks: list[list[int]] = []
    for i in sorted(range(len(lengths)), key=lengths.__getitem__):
        if chunks and (len(chunks[-1]) + 1) * lengths[i] <= PAD_ROW_BUDGET:
            chunks[-1].append(i)
        else:
            chunks.append([i])
    return chunks


# ---------------------------------------------------------------------------
# dropout


class DropoutStream:
    """Counter-based deterministic dropout masks.

    Every mask is generated by a Philox generator keyed by the training seed
    and countered by (epoch, step, doc_index, layer/sublayer slot), so masks
    depend only on those coordinates, never on draw order.
    """

    def __init__(self, seed: int, rate: float, epoch: int = 0, step: int = 0):
        self.seed = seed
        self.rate = rate
        self.epoch = epoch
        self.step = step
        # one Philox instance, re-aimed per mask by resetting its counter;
        # the stream for a (key, counter) pair is identical to constructing
        # a fresh generator, just without the per-mask setup cost
        self._bitgen = np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF)
        self._template = self._bitgen.state
        self._key = self._template["state"]["key"]
        self._generator = np.random.Generator(self._bitgen)

    def at(self, epoch: int, step: int) -> "DropoutStream":
        return DropoutStream(self.seed, self.rate, epoch, step)

    def draw(self, doc_index: int, slot: int, out: np.ndarray) -> None:
        """Fill the C-contiguous float64 array out with the uniform draws
        behind the mask at (doc_index, slot) of that shape."""
        state = dict(self._template)
        state["state"] = {
            "counter": np.array([self.epoch, self.step, doc_index, slot],
                                dtype=np.uint64),
            "key": self._key,
        }
        self._bitgen.state = state
        self._generator.random(out=out)

    @property
    def scale(self) -> float:
        """What a kept unit is multiplied by: 1 / (1 - rate)."""
        return 1.0 / (1.0 - self.rate)

    def mask(self, doc_index: int, slot: int, shape: tuple[int, ...]) -> np.ndarray:
        """Inverted-dropout mask at (doc_index, slot): 0 or scale."""
        draws = np.empty(shape)
        self.draw(doc_index, slot, draws)
        return (draws >= self.rate) * self.scale


# ---------------------------------------------------------------------------
# the model


class FusionModel:
    """Config + parameters + encoder, with forward/backward over documents."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray],
                 encoder: SentenceEncoder):
        self.config = config
        self.params = params
        self.encoder = encoder
        self.registry = load_registry()
        self.position_table = sinusoid_table(config.max_relative_distance,
                                             config.d_model)
        self._head_names = [[self.head_param_names(l, h)
                             for h in range(config.n_heads)]
                            for l in range(config.n_layers)]
        # prepare's key besides the document and the variant
        self._setup = (config, type(encoder))
        self._validate_shapes()

    @staticmethod
    def _encoder(config: ModelConfig) -> HashBucketSentenceEncoder:
        return HashBucketSentenceEncoder(config.d_model, config.n_token_buckets,
                                         trainable=config.encoder_trainable)

    @classmethod
    def build(cls, config: ModelConfig) -> "FusionModel":
        encoder = cls._encoder(config)
        return cls(config, _init_params(config, encoder), encoder)

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

    # -- parameter views ---------------------------------------------------

    def head_param_names(self, layer: int, head: int) -> dict[str, str]:
        """HeadParams field -> parameter name for one head."""
        own = f"layer{layer}/head{head}"
        uv = f"layer{layer}" if self.config.share_uv else own
        return {"W_q": f"{own}/W_q", "W_k": f"{own}/W_k",
                "W_r": f"{own}/W_r", "W_v": f"{own}/W_v",
                "u": f"{uv}/u", "v": f"{uv}/v"}

    def head_params(self, layer: int, head: int) -> HeadParams:
        return HeadParams(**{field: self.params[name] for field, name
                             in self.head_param_names(layer, head).items()})

    def layer_heads(self, layer: int) -> HeadParams:
        """All heads of a layer stacked as HeadParams lays them out."""
        p = self.params
        names = self._head_names[layer]
        return HeadParams(
            **{field: np.concatenate([p[n[field]] for n in names], axis=1)
               for field in ("W_q", "W_k", "W_r", "W_v")},
            **{field: np.array([p[n[field]] for n in names])
               for field in ("u", "v")})

    @property
    def score_scale(self) -> float:
        return 1.0 / np.sqrt(self.config.d_head) if self.config.scale_scores else 1.0

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
        (any sequence of doc, such as a permuted one; never memoized)."""
        if len(seq) == 0:
            raise ContractError("cannot run forward on an empty sequence")
        sentence_rows, sentences = [], []
        lookups = {"embed/entity": ([], []), "embed/relation": ([], [])}
        for pos, el in enumerate(seq.elements):
            if el.kind is ElementKind.SENTENCE:
                sentence_rows.append(pos)
                sentences.append(self.encoder.prepare(
                    doc.sentences[el.payload - 1].tokens))
            elif el.kind is ElementKind.ENTITY:
                lookups["embed/entity"][0].append(pos)
                lookups["embed/entity"][1].append(stable_bucket(
                    el.payload, self.config.n_entity_buckets))
            else:
                lookups["embed/relation"][0].append(pos)
                lookups["embed/relation"][1].append(
                    self.registry.sense_index(el.payload))
        pos_rows, pos_inv = unique_distance_rows(
            distance_indices(seq, self.config.max_relative_distance))
        for tokens in sentences:
            if isinstance(tokens, np.ndarray):
                _read_only(tokens)
        return SequenceContext(
            seq=seq,
            visible=_read_only(visible_matrix(seq) == 0.0),
            pos_rows=_compact(pos_rows),
            pos_inv=_compact(pos_inv),
            sentence_rows=_read_only(np.array(sentence_rows, dtype=np.int64)),
            sentences=tuple(sentences),
            lookups=tuple((name, _read_only(np.array(rows, dtype=np.int64)),
                           _read_only(np.array(ids, dtype=np.int64)))
                          for name, (rows, ids) in lookups.items()),
            label=int(doc.label) if doc.label is not None else None,
            doc_id=doc.id)

    def _kept(self, doc: Document, variant: Variant) -> SequenceContext | None:
        entry = _CONTEXTS.get(id(doc))
        return None if entry is None else entry.get((variant, self._setup))

    def prepare(self, doc: Document, variant: Variant = Variant.FULL,
                seq: FlatSequence | None = None) -> SequenceContext:
        """doc's context under variant. A kept context is returned as is.
        Otherwise, without seq, one is prepared and kept: the same object
        for every model with this config and encoder class, until the
        document is collected. With seq (doc's sequence_for(variant), built
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
        ctx = entry[(variant, self._setup)] = self.prepare_sequence(
            doc, self.sequence_for(doc, variant))
        return ctx

    # -- embedding ---------------------------------------------------------

    def _embed(self, contexts: list[SequenceContext], n: int):
        """Element embeddings (B * n, d_model) of a chunk padded to n rows,
        zero on the padding, and the (row, source) index _embed_backward
        reads: one encoder call and one gather per table for the chunk."""
        offsets = range(0, len(contexts) * n, n)
        x = np.zeros((len(contexts) * n, self.config.d_model))
        sentence_rows = np.concatenate(
            [ctx.sentence_rows + off for ctx, off in zip(contexts, offsets)])
        sentences = [tokens for ctx in contexts for tokens in ctx.sentences]
        x[sentence_rows] = self.encoder.encode_prepared(sentences, self.params)
        lookups = []
        for t, (name, _, _) in enumerate(contexts[0].lookups):
            rows = np.concatenate([ctx.lookups[t][1] + off
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
            np.add.at(grads[name], ids, dx[rows])

    # -- forward -----------------------------------------------------------

    def forward_context(self, contexts: SequenceContext | list[SequenceContext],
                        train_mode: bool = False,
                        dropout: DropoutStream | None = None,
                        doc_index: int | list[int] | None = None):
        """Forward pass over prepared contexts; returns (logits, pooled,
        cache).

        Given one SequenceContext, it runs as a chunk of one: logits is
        (n_classes,), pooled (d_model,) and doc_index (default 0) its dropout
        key. Given a list, the contexts run as one chunk padded to the
        longest: logits is (B, n_classes), pooled (B, d_model), and
        doc_index lists each one's dropout key, its position in the training
        batch (default: its position in the list).
        """
        if isinstance(contexts, SequenceContext):
            logits, pooled, cache = self._forward_chunk(
                [contexts], train_mode, dropout, [doc_index or 0])
            return logits[0], pooled[0], cache
        if doc_index is None:
            doc_index = list(range(len(contexts)))
        return self._forward_chunk(contexts, train_mode, dropout, doc_index)

    def _forward_chunk(self, contexts: list[SequenceContext], train_mode: bool,
                       dropout: DropoutStream | None, doc_indices: list[int]):
        """forward_context over a list: pack, embed, run the layers, pool."""
        cfg = self.config
        use = (dropout if train_mode and dropout is not None
               and cfg.dropout_rate > 0.0 else None)
        lengths = [len(ctx.seq) for ctx in contexts]
        n_docs, n = len(contexts), max(lengths)
        # documents of a chunk share most distance tuples, so the position
        # path runs on the chunk's distinct tuples (a single document's are
        # distinct already)
        if n_docs == 1:
            pos_rows, chunk_rows = contexts[0].pos_rows, None
        else:
            pos_rows, chunk_rows = unique_distance_rows(
                np.concatenate([ctx.pos_rows for ctx in contexts]))
        # padded keys are masked for every query; a padded query sees only
        # itself, so no row is fully masked and padding stays out of real rows
        mask = np.full((n_docs, 1, n, n), MASKED)
        mask[:, 0, np.arange(n), np.arange(n)] = 0.0
        pos_inv = np.zeros((n_docs, n, n), dtype=np.int64)
        pool = np.zeros((n_docs, n))
        start = 0
        for b, ctx in enumerate(contexts):
            m = lengths[b]
            np.copyto(mask[b, 0, :m, :m], 0.0, where=ctx.visible)
            # a uint8/uint16 pos_inv plus an int would stay in its dtype
            pos_inv[b, :m, :m] = (ctx.pos_inv if chunk_rows is None else
                                  chunk_rows[ctx.pos_inv.astype(np.intp)
                                             + start])
            start += ctx.pos_rows.shape[0]
            if cfg.pooling == "mean_sentences":
                pool[b, ctx.sentence_rows] = 1.0 / len(ctx.sentence_rows)
            else:
                pool[b, ctx.sentence_rows[0]] = 1.0
        x, embed_index = self._embed(contexts, n)

        feats, pe_lin, pe = position_embedding(
            self.position_table, pos_rows, self.params["pos/W_p"],
            cfg.position_activation)
        cols = pair_columns(pos_inv, pe.shape[0], cfg.n_heads)

        layer_caches = []
        for l in range(cfg.n_layers):
            keep = None if use is None else (
                self._dropout_keep(use, doc_indices, lengths, n, 2 * l),
                self._dropout_keep(use, doc_indices, lengths, n, 2 * l + 1),
                use.scale)
            x, layer_cache = self._forward_layer(x, pe, cols, mask, l, keep)
            if not np.isfinite(x).all():
                bad = np.unique(np.nonzero(~np.isfinite(x))[0] // n)
                raise NumericalError(
                    f"non-finite activations after layer {l} in document(s) "
                    f"{', '.join(repr(contexts[b].doc_id) for b in bad)}")
            layer_caches.append(layer_cache)

        pooled = (pool[:, None, :] @ x.reshape(n_docs, n, cfg.d_model))[:, 0, :]
        logits = pooled @ self.params["clf/W"] + self.params["clf/b"]

        cache = {
            "embed": embed_index, "feats": feats,
            "pe_lin": pe_lin, "pe": pe, "layers": layer_caches, "x_out": x,
            "pool": pool, "pooled": pooled,
        }
        return logits, pooled, cache

    def forward(self, doc: Document, train_mode: bool = False,
                variant: Variant = Variant.FULL,
                dropout: DropoutStream | None = None, doc_index: int = 0):
        """build graph -> linearize -> filter -> fusion layers -> classifier."""
        logits, pooled, _ = self.forward_context(
            self.prepare(doc, variant), train_mode, dropout, doc_index)
        return logits, pooled

    def _dropout_keep(self, dropout: DropoutStream, doc_indices: list[int],
                      lengths: list[int], n: int, slot: int) -> np.ndarray:
        """(B * n, d_model) boolean keep mask: where each document's own
        (length, d_model) mask, keyed by its batch position, is nonzero, and
        False on the padding. Kept units are multiplied by dropout.scale."""
        draws = np.zeros((len(lengths), n, self.config.d_model))
        for b, (doc_index, m) in enumerate(zip(doc_indices, lengths)):
            dropout.draw(doc_index, slot, draws[b, :m])
        return (draws >= dropout.rate).reshape(-1, self.config.d_model)

    def _forward_layer(self, x: np.ndarray, pe: np.ndarray, cols: np.ndarray,
                       mask: np.ndarray, layer: int, keep: tuple | None):
        """One layer over a chunk; keep is None or the (attention, FFN)
        boolean dropout masks and the scale of a kept unit."""
        cfg = self.config
        p = self.params
        heads = self.layer_heads(layer)
        concat, head_cache = head_forward(x, pe, cols, mask, heads,
                                          self.score_scale)

        attn = concat @ p[f"layer{layer}/W_o"] + p[f"layer{layer}/b_o"]
        if keep is not None:
            attn *= keep[0]
            attn *= keep[2]
        y, ln1_cache = layer_norm_forward(
            x + attn, p[f"layer{layer}/ln1/gamma"], p[f"layer{layer}/ln1/beta"])

        hidden = _rectify(y @ p[f"layer{layer}/ffn/W1"] + p[f"layer{layer}/ffn/b1"],
                          cfg.ffn_activation)
        ffn = hidden @ p[f"layer{layer}/ffn/W2"] + p[f"layer{layer}/ffn/b2"]
        if keep is not None:
            ffn *= keep[1]
            ffn *= keep[2]
        out, ln2_cache = layer_norm_forward(
            y + ffn, p[f"layer{layer}/ln2/gamma"], p[f"layer{layer}/ln2/beta"])

        cache = {
            "x_in": x, "heads": head_cache, "head_params": heads,
            "concat": concat,
            "keep": keep, "ln1": ln1_cache, "hidden": hidden,
            "ln2": ln2_cache,
        }
        return out, cache

    # -- backward ----------------------------------------------------------

    def backward_from_logits(self, dlogits: np.ndarray, cache: dict,
                             grads: dict[str, np.ndarray]) -> None:
        """Accumulate parameter gradients for a chunk's forward cache, given
        dlogits (B, n_classes), one row per document of the chunk."""
        cfg = self.config
        p = self.params
        n_docs, n = cache["pool"].shape

        grads["clf/W"] += cache["pooled"].T @ dlogits
        grads["clf/b"] += dlogits.sum(axis=0)
        dpooled = dlogits @ p["clf/W"].T
        dx = (cache["pool"][:, :, None] * dpooled[:, None, :]).reshape(
            n_docs * n, cfg.d_model)

        dpe_lin = np.zeros_like(cache["pe"])
        for l in reversed(range(cfg.n_layers)):
            dx = self._backward_layer(dx, cache["layers"][l], cache["pe"],
                                      dpe_lin, l, grads)

        # position projection: pe_lin = feats @ W_p (optional relu after)
        if cfg.position_activation == "relu":
            dpe_lin *= cache["pe_lin"] > 0.0
        grads["pos/W_p"] += cache["feats"].T @ dpe_lin

        self._embed_backward(dx, cache["embed"], grads)

    def _backward_layer(self, dout: np.ndarray, cache: dict, pe: np.ndarray,
                        dpe: np.ndarray, layer: int,
                        grads: dict[str, np.ndarray]) -> np.ndarray:
        cfg = self.config
        p = self.params

        # each gradient is accumulated in place into the array the LayerNorm
        # backward returned; a dropout-free branch gradient aliases it and is
        # consumed before the first in-place update
        dy, dg2, db2 = layer_norm_backward(dout, cache["ln2"])
        grads[f"layer{layer}/ln2/gamma"] += dg2
        grads[f"layer{layer}/ln2/beta"] += db2
        keep = cache["keep"]
        dffn = dy if keep is None else dy * keep[1] * keep[2]

        grads[f"layer{layer}/ffn/W2"] += cache["hidden"].T @ dffn
        grads[f"layer{layer}/ffn/b2"] += dffn.sum(axis=0)
        dz1 = ((dffn @ p[f"layer{layer}/ffn/W2"].T)
               * _rectify_grad(cache["hidden"], cfg.ffn_activation))
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
        dattn = dx if keep is None else dx * keep[0] * keep[2]

        grads[f"layer{layer}/W_o"] += cache["concat"].T @ dattn
        grads[f"layer{layer}/b_o"] += dattn.sum(axis=0)
        dconcat = dattn @ p[f"layer{layer}/W_o"].T
        del dattn

        dheads = head_backward(dconcat, cache["heads"], cache["x_in"], pe,
                               cache["head_params"], self.score_scale,
                               dx, dpe)
        d_head = cfg.d_head
        for h in range(cfg.n_heads):
            names = self._head_names[layer][h]
            for field in ("W_q", "W_k", "W_r", "W_v"):
                grads[names[field]] += getattr(dheads, field)[
                    :, h * d_head:(h + 1) * d_head]
            grads[names["u"]] += dheads.u[h]
            grads[names["v"]] += dheads.v[h]
        return dx

    # -- loss --------------------------------------------------------------

    @staticmethod
    def _labels(contexts: list[SequenceContext]) -> np.ndarray:
        if not contexts:
            raise ContractError("empty batch")
        for ctx in contexts:
            if ctx.label is None:
                raise ContractError(f"document {ctx.doc_id!r} is unlabeled")
        return np.array([ctx.label for ctx in contexts])

    def loss_and_grad_contexts(self, contexts: list[SequenceContext],
                               dropout: DropoutStream | None = None,
                               out_predictions: list[int] | None = None):
        """Mean cross-entropy over prepared contexts plus full gradients.

        Contexts run in the chunks of chunk_order, and losses and gradients
        are reduced chunk by chunk in that fixed order, so the result is a
        deterministic function of the batch and independent of any
        external parallelism. Document b's dropout masks are keyed by b.
        """
        labels = self._labels(contexts)
        grads = self.zero_grads()
        total = 0.0
        predictions = np.empty(len(contexts), dtype=np.int64)
        train_mode = dropout is not None
        for chunk in chunk_order([len(ctx.seq) for ctx in contexts]):
            logits, _, cache = self.forward_context(
                [contexts[i] for i in chunk], train_mode=train_mode,
                dropout=dropout, doc_index=chunk)
            probs = softmax(logits)
            rows = np.arange(len(chunk))
            total += -np.log(np.maximum(probs[rows, labels[chunk]],
                                        1e-300)).sum()
            predictions[chunk] = logits.argmax(axis=1)
            dlogits = probs
            dlogits[rows, labels[chunk]] -= 1.0
            dlogits /= len(contexts)
            self.backward_from_logits(dlogits, cache, grads)
            del cache  # one chunk's activations alive at a time
        loss = total / len(contexts)
        if not np.isfinite(loss):
            raise NumericalError("non-finite loss")
        if out_predictions is not None:
            out_predictions.extend(int(pred) for pred in predictions)
        return loss, grads

    def context_loss(self, contexts: list[SequenceContext]) -> float:
        """Eval-mode mean cross-entropy over prepared contexts (no gradients)."""
        labels = self._labels(contexts)
        total = 0.0
        for chunk in chunk_order([len(ctx.seq) for ctx in contexts]):
            logits, _, _ = self.forward_context([contexts[i] for i in chunk])
            probs = softmax(logits)
            total += -np.log(np.maximum(
                probs[np.arange(len(chunk)), labels[chunk]], 1e-300)).sum()
        return total / len(contexts)

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
        for chunk in chunk_order([len(seq) for seq in seqs]):
            logits, _, _ = self.forward_context(
                [self.prepare(docs[i], variant, seqs[i]) for i in chunk])
            for i, pred in zip(chunk, logits.argmax(axis=1)):
                out[i] = int(pred)
        return out

    # -- checkpointing -------------------------------------------------------

    MAGIC = b"CGFUSION\n"
    FORMAT_VERSION = 1

    def save(self, path: str | Path) -> None:
        """Versioned binary dump: JSON header (config + shape table) + raw
        little-endian tensor bytes in header order. Contains no timestamps,
        so identical models serialize to identical bytes."""
        names = sorted(self.params)
        header = {
            "format_version": self.FORMAT_VERSION,
            "config": self.config.to_dict(),
            "tensors": [{"name": name,
                         "shape": list(self.params[name].shape),
                         "dtype": "float64"} for name in names],
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(self.MAGIC)
            fh.write(len(blob).to_bytes(8, "big"))
            fh.write(blob)
            for name in names:
                fh.write(np.ascontiguousarray(
                    self.params[name], dtype="<f8").tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "FusionModel":
        """Read a checkpoint written by save(); a malformed file raises
        ContractError naming the path."""
        with open(path, "rb") as fh:
            if fh.read(len(cls.MAGIC)) != cls.MAGIC:
                raise ContractError(f"{path}: not a fusion checkpoint")
            size = int.from_bytes(fh.read(8), "big")
            try:
                header = json.loads(fh.read(size).decode("utf-8"))
            except ValueError as exc:  # invalid UTF-8 or JSON
                raise ContractError(f"{path}: unreadable header: {exc}") from exc
            if not isinstance(header, dict):
                raise ContractError(f"{path}: header is not a JSON object")
            if header.get("format_version") != cls.FORMAT_VERSION:
                raise ContractError(
                    f"{path}: unsupported checkpoint version "
                    f"{header.get('format_version')}")
            try:
                config = ModelConfig.from_dict(header["config"])
                table = [(str(t["name"]), tuple(t["shape"]))
                         for t in header["tensors"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise ContractError(f"{path}: malformed header: "
                                    f"{type(exc).__name__}: {exc}") from exc
            expected = expected_param_shapes(config)
            params: dict[str, np.ndarray] = {}
            for name, shape in table:
                if name in params:
                    raise ContractError(f"{path}: duplicate tensor {name}")
                if expected.get(name) != shape:
                    raise ContractError(
                        f"{path}: tensor {name} shape {shape} does not match "
                        f"config expectation {expected.get(name)}")
                nbytes = 8 * math.prod(expected[name])
                data = fh.read(nbytes)
                if len(data) != nbytes:
                    raise ContractError(f"{path}: tensor {name} is truncated")
                params[name] = np.frombuffer(data, dtype="<f8").reshape(
                    expected[name]).astype(np.float64)
            missing = set(expected) - set(params)
            if missing:
                raise ContractError(
                    f"{path}: checkpoint missing tensors {sorted(missing)}")
            if fh.read(1):
                raise ContractError(f"{path}: trailing bytes after the last tensor")
        encoder = cls._encoder(config)
        if not config.encoder_trainable:
            # regenerate the frozen table exactly as build() would
            encoder.init_params(np.random.default_rng(np.random.PCG64(config.seed)))
        return cls(config, params, encoder)
