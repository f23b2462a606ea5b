"""Position-aware fusion transformer over flat sequences, with hand-written
reverse-mode gradients.

Everything is float64 numpy. Parameters live in a flat name -> array dict so
the optimizer, checkpointing, and finite-difference checks can enumerate them
uniformly. The attention score between elements i and j is

    A_ij = q_i k_j^T + q_i r_ij^T + u k_j^T + v r_ij^T

with q, k from the element embeddings, r_ij from the pairwise relative
position embedding, and u, v trainable biases; scores are scaled by
1/sqrt(d_head) (switchable) and passed through a visibility-masked softmax.
Every head of every layer runs the one kernel head_forward / head_backward,
and head_scores is the only place the score is formed. Each layer then
applies the standard value mixing, output projection, post-norm residuals,
and a rectified feed-forward block.

Per-document structure (sequence, mask, distance indices, token buckets) is
independent of the parameters, so it is prepared once into a SequenceContext
and reused across forward passes; training loops prepare each document a
single time.
"""

from __future__ import annotations

import json
import math
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
from .masking import masked_softmax, softmax, visible_matrix
from .positions import distance_indices, position_embedding, sinusoid_table

LN_EPS = 1e-5

N_RELATION_ROWS = 30  # 15 explicit + 15 implicit senses, canonical order


class NumericalError(RuntimeError):
    """Non-finite value produced during computation."""


class ContractError(ValueError):
    """Caller violated an operation precondition."""


@dataclass(frozen=True)
class HeadParams:
    """Views into one attention head's parameters."""

    W_q: np.ndarray
    W_k: np.ndarray
    W_r: np.ndarray
    W_v: np.ndarray
    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class SequenceContext:
    """Parameter-independent structure of one document's flat sequence."""

    seq: FlatSequence
    mask: np.ndarray          # (n, n) additive visibility mask
    dist_idx: np.ndarray      # (n, n, 4) sinusoid-table row indices
    routes: tuple[tuple, ...]  # per element: embedding source info
    label: int | None
    doc_id: str


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
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def layer_norm_backward(dy: np.ndarray, cache):
    xhat, inv, gamma = cache
    d = xhat.shape[1]
    dxhat = dy * gamma
    dgamma = (dy * xhat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    dx = (inv / d) * (d * dxhat - dxhat.sum(axis=1, keepdims=True)
                      - xhat * (dxhat * xhat).sum(axis=1, keepdims=True))
    return dx, dgamma, dbeta


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # tanh form is overflow-safe on both tails
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _rectify(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "softplus":
        return np.logaddexp(0.0, z)
    return np.maximum(z, 0.0)


def _rectify_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "softplus":
        return _sigmoid(z)
    return (z > 0.0).astype(np.float64)


def head_scores(x: np.ndarray, pe2d: np.ndarray, head: HeadParams,
                scale: float):
    """Scaled four-term scores q_i.k_j + q_i.r_ij + u.k_j + v.r_ij of one
    head, before the mask, for layer input x (n, d_model) and position
    embeddings pe2d (n * n, d_model). Returns (scores, q, k, r)."""
    n = x.shape[0]
    r = (pe2d @ head.W_r).reshape(n, n, -1)
    q = x @ head.W_q
    k = x @ head.W_k
    s = q @ k.T
    s += np.matmul(r, q[:, :, None])[:, :, 0]
    s += (k @ head.u)[None, :]
    s += r @ head.v
    return s * scale, q, k, r


def head_forward(x: np.ndarray, pe2d: np.ndarray, mask: np.ndarray,
                 head: HeadParams, scale: float):
    """One head's attention output (n, d_head) and the cache head_backward
    reads: q, k, values, r and the masked attention probabilities."""
    s, q, k, r = head_scores(x, pe2d, head, scale)
    probs = masked_softmax(s, mask)
    v_mat = x @ head.W_v
    return probs @ v_mat, (q, k, v_mat, r, probs)


def head_backward(dout: np.ndarray, cache: tuple, x: np.ndarray,
                  pe2d: np.ndarray, head: HeadParams, scale: float,
                  dx: np.ndarray, dpe2d: np.ndarray) -> HeadParams:
    """Reverse of head_forward for the output gradient dout (n, d_head).

    Adds the gradients of x and pe2d into dx and dpe2d in place and returns
    the parameter gradients laid out as a HeadParams.
    """
    q, k, v_mat, r, probs = cache
    n = x.shape[0]
    dprobs = dout @ v_mat.T
    dv_mat = probs.T @ dout
    ds = probs * (dprobs - (dprobs * probs).sum(axis=1, keepdims=True))
    ds *= scale

    dq = ds @ k + np.matmul(ds[:, None, :], r)[:, 0, :]
    col = ds.sum(axis=0)
    dk = ds.T @ q + np.outer(col, head.u)
    # score terms q_i . r_ij and v . r_ij share the ds_ij factor
    dr2d = (ds[:, :, None] * (q[:, None, :] + head.v[None, None, :])
            ).reshape(n * n, -1)
    grads = HeadParams(
        W_q=x.T @ dq, W_k=x.T @ dk, W_r=pe2d.T @ dr2d, W_v=x.T @ dv_mat,
        u=k.T @ col, v=np.tensordot(ds, r, axes=([0, 1], [0, 1])))
    dx += dq @ head.W_q.T + dk @ head.W_k.T + dv_mat @ head.W_v.T
    dpe2d += dr2d @ head.W_r.T
    return grads


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

    def at(self, epoch: int, step: int) -> "DropoutStream":
        return DropoutStream(self.seed, self.rate, epoch, step)

    def mask(self, doc_index: int, slot: int, shape: tuple[int, ...]) -> np.ndarray:
        state = dict(self._template)
        state["state"] = {
            "counter": np.array([self.epoch, self.step, doc_index, slot],
                                dtype=np.uint64),
            "key": self._key,
        }
        self._bitgen.state = state
        keep = np.random.Generator(self._bitgen).random(shape) >= self.rate
        return keep.astype(np.float64) / (1.0 - self.rate)


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
        """Extract everything parameter-independent from a flat sequence."""
        if len(seq) == 0:
            raise ContractError("cannot run forward on an empty sequence")
        routes: list[tuple] = []
        for el in seq.elements:
            if el.kind is ElementKind.SENTENCE:
                tokens = doc.sentences[el.payload - 1].tokens
                routes.append(("sent", self.encoder.prepare(tokens)))
            elif el.kind is ElementKind.ENTITY:
                routes.append(("entity", stable_bucket(
                    el.payload, self.config.n_entity_buckets)))
            else:
                routes.append(("relation", self.registry.sense_index(el.payload)))
        return SequenceContext(
            seq=seq,
            mask=visible_matrix(seq),
            dist_idx=distance_indices(seq, self.config.max_relative_distance),
            routes=tuple(routes),
            label=int(doc.label) if doc.label is not None else None,
            doc_id=doc.id)

    def prepare(self, doc: Document,
                variant: Variant = Variant.FULL) -> SequenceContext:
        return self.prepare_sequence(doc, self.sequence_for(doc, variant))

    # -- embedding ---------------------------------------------------------

    def _embed(self, ctx: SequenceContext) -> np.ndarray:
        embeddings = np.empty((len(ctx.seq), self.config.d_model),
                              dtype=np.float64)
        entity_table = self.params["embed/entity"]
        relation_table = self.params["embed/relation"]
        for pos, (kind, info) in enumerate(ctx.routes):
            if kind == "sent":
                embeddings[pos] = self.encoder.encode_prepared(info, self.params)
            elif kind == "entity":
                embeddings[pos] = entity_table[info]
            else:
                embeddings[pos] = relation_table[info]
        return embeddings

    def _embed_backward(self, d_embeddings: np.ndarray, routes,
                        grads: dict[str, np.ndarray]) -> None:
        for pos, (kind, info) in enumerate(routes):
            if kind == "sent":
                self.encoder.accumulate_grad_prepared(info, d_embeddings[pos],
                                                      grads)
            elif kind == "entity":
                grads["embed/entity"][info] += d_embeddings[pos]
            else:
                grads["embed/relation"][info] += d_embeddings[pos]

    # -- forward -----------------------------------------------------------

    def forward_context(self, ctx: SequenceContext, train_mode: bool = False,
                        dropout: DropoutStream | None = None,
                        doc_index: int = 0):
        """Forward pass over a prepared context; returns (logits, pooled, cache)."""
        cfg = self.config
        use = (dropout if train_mode and dropout is not None
               and cfg.dropout_rate > 0.0 else None)
        feats2d, pe_lin, pe = position_embedding(
            self.position_table, ctx.dist_idx, self.params["pos/W_p"],
            cfg.position_activation)

        x = self._embed(ctx)
        layer_caches = []
        for l in range(cfg.n_layers):
            x, layer_cache = self._forward_layer(x, pe, ctx.mask, l, use,
                                                 doc_index)
            if not np.isfinite(x).all():
                raise NumericalError(f"non-finite activations after layer {l}")
            layer_caches.append(layer_cache)

        if cfg.pooling == "mean_sentences":
            sent_rows = ctx.seq.sentence_positions()
            pooled = x[sent_rows].mean(axis=0)
        else:
            sent_rows = ctx.seq.sentence_positions()[:1]
            pooled = x[sent_rows[0]]
        logits = pooled @ self.params["clf/W"] + self.params["clf/b"]

        cache = {
            "ctx": ctx, "feats2d": feats2d, "pe_lin": pe_lin, "pe": pe,
            "layers": layer_caches, "x_out": x,
            "sent_rows": sent_rows, "pooled": pooled,
        }
        return logits, pooled, cache

    def forward(self, doc: Document, train_mode: bool = False,
                variant: Variant = Variant.FULL,
                dropout: DropoutStream | None = None, doc_index: int = 0):
        """build graph -> linearize -> filter -> fusion layers -> classifier."""
        logits, pooled, _ = self.forward_context(
            self.prepare(doc, variant), train_mode, dropout, doc_index)
        return logits, pooled

    def _forward_layer(self, x: np.ndarray, pe: np.ndarray, mask: np.ndarray,
                       layer: int, dropout: DropoutStream | None,
                       doc_index: int):
        cfg = self.config
        p = self.params
        scale = self.score_scale
        outs, head_caches = zip(*(
            head_forward(x, pe, mask, self.head_params(layer, h), scale)
            for h in range(cfg.n_heads)))
        concat = np.concatenate(outs, axis=1)

        attn = concat @ p[f"layer{layer}/W_o"] + p[f"layer{layer}/b_o"]
        if dropout is not None:
            attn_keep = dropout.mask(doc_index, 2 * layer, attn.shape)
            attn = attn * attn_keep
        else:
            attn_keep = None
        y, ln1_cache = layer_norm_forward(
            x + attn, p[f"layer{layer}/ln1/gamma"], p[f"layer{layer}/ln1/beta"])

        z1 = y @ p[f"layer{layer}/ffn/W1"] + p[f"layer{layer}/ffn/b1"]
        hidden = _rectify(z1, cfg.ffn_activation)
        ffn = hidden @ p[f"layer{layer}/ffn/W2"] + p[f"layer{layer}/ffn/b2"]
        if dropout is not None:
            ffn_keep = dropout.mask(doc_index, 2 * layer + 1, ffn.shape)
            ffn = ffn * ffn_keep
        else:
            ffn_keep = None
        out, ln2_cache = layer_norm_forward(
            y + ffn, p[f"layer{layer}/ln2/gamma"], p[f"layer{layer}/ln2/beta"])

        cache = {
            "x_in": x, "heads": head_caches, "concat": concat,
            "attn_keep": attn_keep, "ln1": ln1_cache, "y": y,
            "z1": z1, "hidden": hidden, "ffn_keep": ffn_keep,
            "ln2": ln2_cache,
        }
        return out, cache

    # -- backward ----------------------------------------------------------

    def backward_from_logits(self, dlogits: np.ndarray, cache: dict,
                             grads: dict[str, np.ndarray]) -> None:
        """Accumulate parameter gradients for one document's forward cache."""
        cfg = self.config
        p = self.params
        ctx: SequenceContext = cache["ctx"]
        n = len(ctx.seq)

        grads["clf/W"] += np.outer(cache["pooled"], dlogits)
        grads["clf/b"] += dlogits
        dpooled = p["clf/W"] @ dlogits

        dx = np.zeros((n, cfg.d_model), dtype=np.float64)
        sent_rows = cache["sent_rows"]
        if cfg.pooling == "mean_sentences":
            dx[sent_rows] = dpooled / len(sent_rows)
        else:
            dx[sent_rows[0]] = dpooled

        dpe_lin = np.zeros((n * n, cfg.d_model), dtype=np.float64)
        for l in reversed(range(cfg.n_layers)):
            dx = self._backward_layer(dx, cache["layers"][l], cache["pe"],
                                      dpe_lin, l, grads)

        # position projection: pe_lin = feats @ W_p (optional relu after)
        if cfg.position_activation == "relu":
            dpe_lin = dpe_lin * (cache["pe_lin"] > 0.0)
        grads["pos/W_p"] += cache["feats2d"].T @ dpe_lin

        self._embed_backward(dx, ctx.routes, grads)

    def _backward_layer(self, dout: np.ndarray, cache: dict, pe: np.ndarray,
                        dpe: np.ndarray, layer: int,
                        grads: dict[str, np.ndarray]) -> np.ndarray:
        cfg = self.config
        p = self.params
        scale = self.score_scale

        dpre2, dg2, db2 = layer_norm_backward(dout, cache["ln2"])
        grads[f"layer{layer}/ln2/gamma"] += dg2
        grads[f"layer{layer}/ln2/beta"] += db2
        dy = dpre2.copy()
        dffn = dpre2 if cache["ffn_keep"] is None else dpre2 * cache["ffn_keep"]

        grads[f"layer{layer}/ffn/W2"] += cache["hidden"].T @ dffn
        grads[f"layer{layer}/ffn/b2"] += dffn.sum(axis=0)
        dhidden = dffn @ p[f"layer{layer}/ffn/W2"].T
        dz1 = dhidden * _rectify_grad(cache["z1"], cfg.ffn_activation)
        grads[f"layer{layer}/ffn/W1"] += cache["y"].T @ dz1
        grads[f"layer{layer}/ffn/b1"] += dz1.sum(axis=0)
        dy += dz1 @ p[f"layer{layer}/ffn/W1"].T

        dpre1, dg1, db1 = layer_norm_backward(dy, cache["ln1"])
        grads[f"layer{layer}/ln1/gamma"] += dg1
        grads[f"layer{layer}/ln1/beta"] += db1
        dx = dpre1.copy()
        dattn = dpre1 if cache["attn_keep"] is None else dpre1 * cache["attn_keep"]

        grads[f"layer{layer}/W_o"] += cache["concat"].T @ dattn
        grads[f"layer{layer}/b_o"] += dattn.sum(axis=0)
        dconcat = dattn @ p[f"layer{layer}/W_o"].T

        for h in range(cfg.n_heads):
            dhead = head_backward(
                dconcat[:, h * cfg.d_head:(h + 1) * cfg.d_head],
                cache["heads"][h], cache["x_in"], pe, self.head_params(layer, h),
                scale, dx, dpe)
            for field, name in self.head_param_names(layer, h).items():
                grads[name] += getattr(dhead, field)

        return dx

    # -- loss --------------------------------------------------------------

    def loss_and_grad_contexts(self, contexts: list[SequenceContext],
                               dropout: DropoutStream | None = None,
                               out_predictions: list[int] | None = None):
        """Mean cross-entropy over prepared contexts plus full gradients.

        Contexts are processed in order and gradients reduced sequentially,
        so the result is independent of any external parallelism.
        """
        if not contexts:
            raise ContractError("empty batch")
        for ctx in contexts:
            if ctx.label is None:
                raise ContractError(f"document {ctx.doc_id!r} is unlabeled")
        grads = self.zero_grads()
        total = 0.0
        train_mode = dropout is not None
        for doc_index, ctx in enumerate(contexts):
            logits, _, cache = self.forward_context(
                ctx, train_mode=train_mode, dropout=dropout,
                doc_index=doc_index)
            probs = softmax(logits)
            total += -np.log(max(probs[ctx.label], 1e-300))
            if out_predictions is not None:
                out_predictions.append(int(np.argmax(logits)))
            dlogits = probs.copy()
            dlogits[ctx.label] -= 1.0
            dlogits /= len(contexts)
            self.backward_from_logits(dlogits, cache, grads)
        loss = total / len(contexts)
        if not np.isfinite(loss):
            raise NumericalError("non-finite loss")
        return loss, grads

    def context_loss(self, contexts: list[SequenceContext]) -> float:
        """Eval-mode mean cross-entropy over prepared contexts (no gradients)."""
        total = 0.0
        for ctx in contexts:
            logits, _, _ = self.forward_context(ctx)
            probs = softmax(logits)
            total += -np.log(max(probs[ctx.label], 1e-300))
        return total / len(contexts)

    def predict(self, docs: list[Document],
                variant: Variant = Variant.FULL) -> list[int]:
        out = []
        for doc in docs:
            logits, _ = self.forward(doc, variant=variant)
            out.append(int(np.argmax(logits)))
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
