"""Documents batched through the fusion layers in padded chunks: the chunk
rule, equivalence with one document at a time, inert padding, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohgraph.fusion import model as fusion_model
from cohgraph.fusion.masking import softmax
from cohgraph.fusion.model import DropoutStream, FusionModel, chunk_order
from cohgraph.synth import SynthProfile, synth_generate

from conftest import make_demo_document, tiny_model_config


def mixed_docs(n=6, seed=3):
    """Documents of 3 to 7 sentences, so their flat lengths differ."""
    profile = SynthProfile(name="mixed", n_sentences=(3, 7),
                           tokens_per_sentence=(3, 5), domain_tags=("synthA",))
    return [make_demo_document()] + synth_generate(n - 1, seed=seed,
                                                   profile=profile)


def _assert_rel_close(got, want, rel):
    """Max absolute difference within rel of the largest |want| entry."""
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=rel * max(np.max(np.abs(want)), 1e-300))


def one_at_a_time(model, contexts, dropout):
    """Loss, gradients and logits from forward_context and
    backward_from_logits run on each document alone, keyed as in a batch."""
    grads = model.zero_grads()
    total = 0.0
    logits_all = []
    for i, ctx in enumerate(contexts):
        logits, _, cache = model.forward_context(
            ctx, train_mode=dropout is not None, dropout=dropout, doc_index=i)
        probs = softmax(logits)
        total += -np.log(probs[ctx.label])
        dlogits = probs.copy()
        dlogits[ctx.label] -= 1.0
        model.backward_from_logits(dlogits[None] / len(contexts), cache, grads)
        logits_all.append(logits)
    return total / len(contexts), grads, np.array(logits_all)


class TestChunkOrder:
    def test_greedy_in_stable_length_order_under_the_budget(self,
                                                           monkeypatch):
        monkeypatch.setattr(fusion_model, "PAD_ROW_BUDGET", 20)
        # ascending, ties in batch order; 4 x 5 rows fill the first chunk
        assert chunk_order([5, 3, 5, 9, 3, 4, 40]) == [[1, 4, 5, 0], [2, 3],
                                                       [6]]

    def test_documents_over_half_the_budget_run_alone(self, monkeypatch):
        monkeypatch.setattr(fusion_model, "PAD_ROW_BUDGET", 20)
        lengths = [11, 4, 12, 30, 4, 10, 5]
        chunks = chunk_order(lengths)
        assert sorted(i for chunk in chunks for i in chunk) == list(range(7))
        for chunk in chunks:
            if any(lengths[i] > 10 for i in chunk):
                assert len(chunk) == 1
        assert [1, 4, 6] in chunks   # 3 x 5 rows fit; 4 x 10 would not

    def test_long_default_documents_keep_per_document_shapes(self):
        """At the default budget every document of more than 48 elements is
        a chunk of its own, with the shapes it has alone."""
        lengths = list(range(49, 149))
        assert chunk_order(lengths) == [[i] for i in range(len(lengths))]


@pytest.mark.parametrize("overrides", [
    {},
    {"share_uv": True},
    {"ffn_activation": "relu", "position_activation": "relu"},
    {"pooling": "first_sentence"},
    {"max_relative_distance": 3, "scale_scores": False},
])
@pytest.mark.parametrize("budget", [None, 24])
def test_chunks_match_one_document_at_a_time(overrides, budget, monkeypatch):
    """Batched logits, loss and every gradient equal the per-document runs
    within 1e-10 relative, with dropout on and in eval mode."""
    if budget is not None:
        monkeypatch.setattr(fusion_model, "PAD_ROW_BUDGET", budget)
    model = FusionModel.build(tiny_model_config(n_layers=2, dropout_rate=0.2,
                                                **overrides))
    contexts = [model.prepare(doc) for doc in mixed_docs()]
    if budget is not None:
        assert len(chunk_order([len(c.seq) for c in contexts])) >= 2
    for dropout in (DropoutStream(5, 0.2).at(1, 2), None):
        predictions = []
        loss, grads = model.loss_and_grad_contexts(
            contexts, dropout=dropout, out_predictions=predictions)
        want_loss, want_grads, logits = one_at_a_time(model, contexts, dropout)
        assert loss == pytest.approx(want_loss, rel=1e-10)
        for name in model.params:
            _assert_rel_close(grads[name], want_grads[name], 1e-10)
        assert predictions == [int(np.argmax(row)) for row in logits]
    got, _, _ = model.forward_context(contexts)
    _assert_rel_close(got, logits, 1e-10)
    assert model.context_loss(contexts) == pytest.approx(
        one_at_a_time(model, contexts, None)[0], rel=1e-10)


def test_padding_is_inert_and_receives_zero_gradient():
    """Real queries give padded keys exactly zero attention, a padded query
    attends only to itself, and no gradient reaches a padded row."""
    model = FusionModel.build(tiny_model_config(n_layers=2))
    contexts = [model.prepare(doc) for doc in mixed_docs(3)]
    lengths = [len(ctx.seq) for ctx in contexts]
    n = max(lengths)
    assert min(lengths) < n
    logits, _, cache = model.forward_context(contexts)
    for layer_cache in cache["layers"]:
        probs = layer_cache["heads"][-1]
        for b, m in enumerate(lengths):
            assert (probs[b, :, :m, m:] == 0.0).all()
            assert (probs[b, :, m:, m:] == np.eye(n - m)).all()

    seen = {}
    embed_backward = model._embed_backward

    def capture(dx, index, grads):
        seen["dx"] = dx.copy()
        embed_backward(dx, index, grads)

    model._embed_backward = capture
    dlogits = np.random.default_rng(0).normal(size=logits.shape)
    model.backward_from_logits(dlogits, cache, model.zero_grads())
    dx = seen["dx"].reshape(len(contexts), n, -1)
    for b, m in enumerate(lengths):
        assert dx[b, :m].any()
        assert (dx[b, m:] == 0.0).all()


def test_gradients_match_finite_differences_across_chunks(monkeypatch):
    """Central differences on a mixed-length batch split into several padded
    chunks, every parameter tensor, as in the single-chunk check."""
    monkeypatch.setattr(fusion_model, "PAD_ROW_BUDGET", 24)
    config = tiny_model_config(d_model=16, n_heads=2, d_ffn=24,
                               n_token_buckets=8, n_entity_buckets=4)
    model = FusionModel.build(config)
    contexts = [model.prepare(doc) for doc in mixed_docs(4, seed=11)]
    chunks = chunk_order([len(c.seq) for c in contexts])
    assert len(chunks) >= 2 and max(len(chunk) for chunk in chunks) >= 2
    _, grads = model.loss_and_grad_contexts(contexts)
    eps = 1e-5
    for name in sorted(model.params):
        p = model.params[name]
        fd = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            up = model.context_loss(contexts)
            p[idx] = orig - eps
            down = model.context_loss(contexts)
            p[idx] = orig
            fd[idx] = (up - down) / (2 * eps)
        denom = max(np.linalg.norm(grads[name]), np.linalg.norm(fd), 1e-12)
        rel = np.linalg.norm(grads[name] - fd) / denom
        assert rel < 1e-6, f"{name}: rel error {rel:.2e}"


_PERM_MODEL = FusionModel.build(tiny_model_config(n_layers=2))
_PERM_CONTEXTS = [_PERM_MODEL.prepare(doc) for doc in mixed_docs(8, seed=5)]


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(range(len(_PERM_CONTEXTS))),
       budget=st.sampled_from([12, 40, 128]))
def test_batch_order_moves_nothing_but_rounding(order, budget):
    """Permuting the batch regroups the chunks; the loss and gradients move
    by at most 1e-12 relative and no prediction changes."""
    model = _PERM_MODEL
    saved = fusion_model.PAD_ROW_BUDGET
    fusion_model.PAD_ROW_BUDGET = budget
    try:
        base_preds, perm_preds = [], []
        loss, grads = model.loss_and_grad_contexts(
            _PERM_CONTEXTS, out_predictions=base_preds)
        perm_loss, perm_grads = model.loss_and_grad_contexts(
            [_PERM_CONTEXTS[i] for i in order], out_predictions=perm_preds)
    finally:
        fusion_model.PAD_ROW_BUDGET = saved
    assert perm_loss == pytest.approx(loss, rel=1e-12)
    for name in model.params:
        _assert_rel_close(perm_grads[name], grads[name], 1e-12)
    assert perm_preds == [base_preds[i] for i in order]
