"""Position-aware attention scores against a term-by-term oracle, and the
distance-tuple head kernel against the dense per-pair kernel."""

import numpy as np
import pytest

from cohgraph.flat import FlatSequence, linearize
from cohgraph.fusion.masking import masked_softmax
from cohgraph.fusion.model import (FusionModel, HeadParams, head_backward,
                                   head_forward, head_scores)
from cohgraph.fusion.positions import (distance_indices, pair_columns,
                                       position_embedding, sinusoid_table,
                                       unique_distance_rows)
from cohgraph.graph import build_graph
from cohgraph.synth import SynthProfile, synth_generate

from conftest import make_demo_document, tiny_model_config
from oracles import (dense_head_backward, dense_head_scores,
                     oracle_pair_embedding, oracle_scores)

D = 8
MAX_DISTANCE = 16
SCALE = 1.0 / np.sqrt(D)


def _W_p(seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(0, 0.3, (4 * D, D))


def _pe(seq, W_p):
    """The model's (U, D) distance-tuple embeddings of a sequence and the
    (1, 1, n, n) pair columns a one-head kernel gathers them by."""
    pos_rows, pos_inv = unique_distance_rows(
        distance_indices(seq, MAX_DISTANCE))
    pe = position_embedding(sinusoid_table(MAX_DISTANCE, D), pos_rows, W_p)[2]
    return pe, pair_columns(pos_inv[None], len(pos_rows), 1)


def _demo_sequence():
    """First five elements (four sentences + one entity) of the demo doc."""
    seq = linearize(build_graph(make_demo_document()))
    return FlatSequence(seq.elements[:5], seq.n_sentences)


def _random_head(rng, d_head=D):
    return HeadParams(
        W_q=rng.normal(0, 0.4, (D, d_head)),
        W_k=rng.normal(0, 0.4, (D, d_head)),
        W_r=rng.normal(0, 0.4, (D, d_head)),
        W_v=rng.normal(0, 0.4, (D, d_head)),
        u=rng.normal(0, 0.4, d_head),
        v=rng.normal(0, 0.4, d_head))


def test_all_zero_parameters_give_zero_scores():
    """Every score term carries a zero factor when all parameters are zero."""
    seq = _demo_sequence()
    head = HeadParams(*(np.zeros((D, D)) for _ in range(4)),
                      u=np.zeros(D), v=np.zeros(D))
    rng = np.random.default_rng(1)
    scores, *_ = head_scores(rng.normal(size=(len(seq), D)),
                             *_pe(seq, _W_p()), head, SCALE)
    np.testing.assert_array_equal(scores[0, 0], np.zeros((len(seq), len(seq))))


def test_identity_projections_reduce_to_content_attention():
    """With W_q = W_k = I and zero position terms, scores are scaled e_i . e_j."""
    seq = _demo_sequence()
    head = HeadParams(W_q=np.eye(D), W_k=np.eye(D), W_r=np.zeros((D, D)),
                      W_v=np.eye(D), u=np.zeros(D), v=np.zeros(D))
    rng = np.random.default_rng(2)
    emb = rng.normal(size=(len(seq), D))
    scores, *_ = head_scores(emb, *_pe(seq, _W_p()), head, SCALE)
    np.testing.assert_allclose(scores[0, 0], (emb @ emb.T) / np.sqrt(D),
                               rtol=0, atol=1e-15)


def test_five_element_sequence_matches_term_oracle():
    seq = _demo_sequence()
    assert len(seq) == 5
    rng = np.random.default_rng(3)
    W_p = _W_p(seed=4)
    pair_embedding = lambda a, b: oracle_pair_embedding(a, b, W_p,
                                                        MAX_DISTANCE)
    for trial in range(5):
        head = _random_head(rng)
        emb = rng.normal(size=(5, D))
        got, *_ = head_scores(emb, *_pe(seq, W_p), head, SCALE)
        want = oracle_scores(seq, emb, head, pair_embedding, SCALE)
        np.testing.assert_allclose(got[0, 0], want, rtol=0, atol=1e-12)


def test_explicit_scale_override():
    seq = _demo_sequence()
    rng = np.random.default_rng(6)
    head = _random_head(rng)
    emb = rng.normal(size=(5, D))
    pe, cols = _pe(seq, _W_p(seed=7))
    unscaled, *_ = head_scores(emb, pe, cols, head, 1.0)
    scaled, *_ = head_scores(emb, pe, cols, head, SCALE)
    np.testing.assert_allclose(scaled[0, 0], unscaled[0, 0] / np.sqrt(D),
                               atol=1e-15)


@pytest.mark.parametrize("share_uv", [False, True])
@pytest.mark.parametrize("scale_scores", [True, False])
def test_trained_path_probabilities_match_oracle(share_uv, scale_scores):
    """Every head's cached attention in forward_context equals the masked
    softmax of the term oracle's scores on that layer's input."""
    model = FusionModel.build(tiny_model_config(
        n_layers=2, share_uv=share_uv, scale_scores=scale_scores))
    profile = SynthProfile(name="oracle", n_sentences=(3, 5),
                           tokens_per_sentence=(3, 5), domain_tags=("synthA",))
    docs = [make_demo_document()] + synth_generate(3, seed=8, profile=profile)
    cfg = model.config
    scale = 1.0 / np.sqrt(cfg.d_head) if scale_scores else 1.0
    W_p = model.params["pos/W_p"]
    pair_embedding = lambda a, b: oracle_pair_embedding(
        a, b, W_p, cfg.max_relative_distance)
    for doc in docs:
        ctx = model.prepare(doc)
        _, _, cache = model.forward_context(ctx)
        for layer, layer_cache in enumerate(cache["layers"]):
            for h, probs in enumerate(layer_cache["heads"][-1][0]):
                want = masked_softmax(
                    oracle_scores(ctx.seq, layer_cache["x_in"],
                                  model.head_params(layer, h),
                                  pair_embedding, scale),
                    ctx.mask)
                np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)


def _assert_rel_close(got, want, rel=1e-12):
    """Max absolute difference within rel of the largest |want| entry."""
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=rel * np.max(np.abs(want)))


@pytest.mark.parametrize("position_activation", ["none", "relu"])
@pytest.mark.parametrize("share_uv", [False, True])
@pytest.mark.parametrize("scale_scores", [True, False])
def test_head_kernel_matches_dense_oracle(share_uv, scale_scores,
                                          position_activation):
    """On every layer of a forward pass, the distance-tuple kernel over the
    stacked heads matches the dense per-pair kernel run head by head:
    scores, probabilities, output, the six parameter gradients, dx, and the
    per-pair position gradient summed onto the tuple rows. A small max
    distance makes many pairs share a tuple."""
    model = FusionModel.build(tiny_model_config(
        n_layers=2, share_uv=share_uv, scale_scores=scale_scores,
        position_activation=position_activation, max_relative_distance=3))
    profile = SynthProfile(name="oracle", n_sentences=(4, 7),
                           tokens_per_sentence=(3, 5), domain_tags=("synthA",))
    docs = [make_demo_document()] + synth_generate(3, seed=9, profile=profile)
    scale = model.score_scale
    n_heads, d_head = model.config.n_heads, model.config.d_head
    rng = np.random.default_rng(21)
    for doc in docs:
        ctx = model.prepare(doc)
        _, _, cache = model.forward_context(ctx)
        pe = cache["pe"]
        n = len(ctx.seq)
        assert pe.shape[0] < n * n
        cols = pair_columns(ctx.pos_inv[None], pe.shape[0], n_heads)
        pe2d = pe[ctx.pos_inv].reshape(n * n, -1)
        for layer, layer_cache in enumerate(cache["layers"]):
            x = layer_cache["x_in"]
            heads = model.layer_heads(layer)
            got_s, *_ = head_scores(x, pe, cols, heads, scale)
            out, head_cache = head_forward(x, pe, cols, ctx.mask[None, None],
                                           heads, scale)
            dout = rng.normal(size=out.shape)
            dx = np.zeros_like(x)
            dpe = np.zeros_like(pe)
            grads = head_backward(dout, head_cache, x, pe, heads, scale,
                                  dx, dpe)
            want_dx = np.zeros_like(x)
            want_dpe = np.zeros_like(pe)
            for h in range(n_heads):
                block = slice(h * d_head, (h + 1) * d_head)
                head = model.head_params(layer, h)
                want_s, q, k, r = dense_head_scores(x, pe2d, head, scale)
                _assert_rel_close(got_s[0, h], want_s)
                probs = masked_softmax(want_s, ctx.mask)
                v_mat = x @ head.W_v
                _assert_rel_close(head_cache[-1][0, h], probs)
                _assert_rel_close(out[:, block], probs @ v_mat)

                want_grads, head_dx, dpe2d = dense_head_backward(
                    dout[:, block], q, k, v_mat, r, probs, x, pe2d, head,
                    scale)
                for field in ("W_q", "W_k", "W_r", "W_v"):
                    _assert_rel_close(getattr(grads, field)[:, block],
                                      getattr(want_grads, field))
                _assert_rel_close(grads.u[h], want_grads.u)
                _assert_rel_close(grads.v[h], want_grads.v)
                want_dx += head_dx
                np.add.at(want_dpe, ctx.pos_inv.ravel(), dpe2d)
            _assert_rel_close(dx, want_dx)
            _assert_rel_close(dpe, want_dpe)
