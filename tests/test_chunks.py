"""Documents batched through the fusion layers in padded chunks: the chunk
rule, equivalence with one document at a time, inert padding, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohgraph.fusion import model as fusion_model
from cohgraph.fusion.config import ModelConfig
from cohgraph.fusion.masking import softmax
from cohgraph.fusion.model import (DropoutStream, FusionModel, chunk_order,
                                   chunk_visibility, head_backward,
                                   head_forward)
from cohgraph.fusion.positions import position_embedding
from cohgraph.synth import SynthProfile, synth_generate
from cohgraph.variants import FUSION_VARIANTS, Variant

from conftest import make_demo_document, tiny_model_config
from oracles import eval_loss


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
            ctx, dropout=dropout, doc_index=i)
        probs = softmax(logits)
        total += -np.log(probs[ctx.label])
        dlogits = probs.copy()
        dlogits[ctx.label] -= 1.0
        model.backward_from_logits(dlogits[None] / len(contexts), cache, grads)
        logits_all.append(logits)
    return total / len(contexts), grads, np.array(logits_all)


DEFAULT_D_MODEL = ModelConfig().d_model


def sentences_only(lengths):
    """(S, E) shapes of documents of that many sentences and no edges."""
    return [(n, 0) for n in lengths]


class TestChunkOrder:
    def test_greedy_in_stable_length_order_under_the_budget(self,
                                                           monkeypatch):
        monkeypatch.setattr(fusion_model, "PAD_ROW_BUDGET", 20)
        # ascending, ties in batch order; 4 x 5 rows fill the first chunk
        assert chunk_order(sentences_only([5, 3, 5, 9, 3, 4, 40]),
                           DEFAULT_D_MODEL) == [[1, 4, 5, 0], [2, 3], [6]]

    def test_a_chunk_closes_on_its_most_sentences_plus_most_edges(
            self, monkeypatch):
        """Two documents of 8 and 10 rows pad to 8 + 8 rows each when one
        sets the most sentences and the other the most edges."""
        monkeypatch.setattr(fusion_model, "PAD_ROW_BUDGET", 20)
        assert chunk_order([(8, 0), (2, 8)], DEFAULT_D_MODEL) == [[0], [1]]
        assert chunk_order([(8, 0), (8, 2)], DEFAULT_D_MODEL) == [[0, 1]]

    @pytest.mark.parametrize("variant", list(FUSION_VARIANTS))
    def test_predict_counts_the_shapes_prepare_lays_out(self, variant):
        """predict chunks unprepared sequences by the (S, E) that their
        contexts will have."""
        model = FusionModel.build(tiny_model_config(max_elements=6))
        docs = mixed_docs()
        assert [fusion_model._sequence_shape(model.sequence_for(doc, variant))
                for doc in docs] == fusion_model._context_shapes(
                    [model.prepare(doc, variant) for doc in docs])

    def test_documents_over_half_the_budget_run_alone(self, monkeypatch):
        monkeypatch.setattr(fusion_model, "PAD_ROW_BUDGET", 20)
        lengths = [11, 4, 12, 30, 4, 10, 5]
        chunks = chunk_order(sentences_only(lengths), DEFAULT_D_MODEL)
        assert sorted(i for chunk in chunks for i in chunk) == list(range(7))
        for chunk in chunks:
            if any(lengths[i] > 10 for i in chunk):
                assert len(chunk) == 1
        assert [1, 4, 6] in chunks   # 3 x 5 rows fit; 4 x 10 would not

    def test_long_default_documents_keep_per_document_shapes(self):
        """At the default budget every document of more than 48 elements is
        a chunk of its own, with the shapes it has alone."""
        lengths = list(range(49, 149))
        assert chunk_order(sentences_only(lengths), DEFAULT_D_MODEL) == [
            [i] for i in range(len(lengths))]

    def test_row_budget_follows_d_model(self, monkeypatch):
        """A chunk holds PAD_VALUE_BUDGET // d_model rows, at most
        PAD_ROW_BUDGET: 96 at d_model 256, 48 at 512, and the cap at 32."""
        sizes = lambda d_model: [len(c) for c in chunk_order([(10, 6)] * 64,
                                                             d_model)]
        assert sizes(256) == [6] * 10 + [4]
        assert sizes(512) == [3] * 21 + [1]
        cap = fusion_model.PAD_ROW_BUDGET // 16
        assert cap > 6 and sizes(32) == [cap] * (64 // cap) + (
            [64 % cap] if 64 % cap else [])
        monkeypatch.setattr(fusion_model, "PAD_ROW_BUDGET", 1024)
        assert sizes(32) == [48, 16]       # 768 rows of 32 values
        assert sizes(128) == [12] * 5 + [4]


@pytest.mark.parametrize("d_model", [8, 32, 256])
@settings(max_examples=200, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(1, 60), st.integers(0, 120)),
                       min_size=1, max_size=40))
def test_no_chunk_pads_past_the_row_budget(d_model, shapes):
    """Every chunk of two or more documents pads to at most the row budget
    at d_model, and the chunks hold each batch position once, in stable
    ascending length order."""
    budget = min(fusion_model.PAD_ROW_BUDGET,
                 fusion_model.PAD_VALUE_BUDGET // d_model)
    chunks = chunk_order(shapes, d_model)
    for chunk in chunks:
        rows = len(chunk) * (max(shapes[i][0] for i in chunk)
                             + max(shapes[i][1] for i in chunk))
        assert len(chunk) == 1 or rows <= budget
    order = [i for chunk in chunks for i in chunk]
    assert order == sorted(range(len(shapes)), key=lambda i: sum(shapes[i]))


@pytest.mark.parametrize("overrides", [
    {},
    {"n_heads": 4},
    {"n_token_buckets": 2},
    {"max_elements": 6},
    {"max_relative_distance": 3},
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
        assert len(chunk_order(fusion_model._context_shapes(contexts),
                               model.config.d_model)) >= 2
    for dropout in (DropoutStream(5, 1, 2), None):
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


def test_dropout_masks_do_not_depend_on_the_chunk():
    """Each document's dropout masks in a padded chunk are its masks run
    alone under the same batch position, on its own rows: its sentence
    rows, then (but on the last layer) its edge rows; padding is 0."""
    model = FusionModel.build(tiny_model_config(n_layers=3, dropout_rate=0.3))
    contexts = [model.prepare(doc) for doc in mixed_docs()]
    stream = DropoutStream(2, 4, 1)
    doc_indices = [5, 0, 3, 1, 4, 2]
    vis = chunk_visibility(contexts, model.config.n_heads)[0]
    n_docs, _, n_sent, n = vis.mask.shape
    keep = model._dropout_keep(stream, doc_indices, contexts, n_sent, n)
    for b, (doc_index, ctx) in enumerate(zip(doc_indices, contexts)):
        s, e = len(ctx.sentences), len(ctx.edge_keys)
        alone = model._dropout_keep(stream, [doc_index], [ctx], s, s + e)
        for pair, own in zip(keep, alone):
            for got, want in zip(pair, own):
                got = got.reshape(n_docs, -1, model.config.d_model)[b]
                edges = got[n_sent:n_sent + e] if len(got) == n else got[:0]
                np.testing.assert_array_equal(
                    np.concatenate([got[:s], edges]), want)
                assert 0 < np.count_nonzero(got) == np.count_nonzero(want)


def test_padding_is_inert_and_receives_zero_gradient():
    """Each document of a chunk has its S_b sentences in the chunk's first
    S slots and its E_b edges in the E after them. Real queries give padded
    keys exactly zero attention, a padded sentence slot attends only to
    itself, and no gradient reaches a padded row."""
    model = FusionModel.build(tiny_model_config(n_layers=2))
    contexts = [model.prepare(doc) for doc in mixed_docs(3)]
    n_sent = [len(ctx.sentences) for ctx in contexts]
    n_edge = [len(ctx.edge_pos) for ctx in contexts]
    s_max = max(n_sent)
    n = s_max + max(n_edge)
    assert min(n_sent) < s_max and min(n_edge) < max(n_edge)
    logits, _, cache = model.forward_context(contexts)
    real = np.zeros((len(contexts), n), dtype=bool)
    for b, (s, e) in enumerate(zip(n_sent, n_edge)):
        real[b, :s] = real[b, s_max:s_max + e] = True
    for layer_cache in cache["layers"]:
        probs = layer_cache["heads"][-2]
        assert probs.shape[2:] == (s_max, n)
        for b, s in enumerate(n_sent):
            assert (probs[b, :, :s][:, :, ~real[b]] == 0.0).all()
            assert (probs[b, :, s:, :] == np.eye(s_max, n)[s:]).all()

    seen = {}
    embed_backward = model._embed_backward

    def capture(dx, index, grads):
        seen["dx"] = dx.copy()
        embed_backward(dx, index, grads)

    model._embed_backward = capture
    dlogits = np.random.default_rng(0).normal(size=logits.shape)
    model.backward_from_logits(dlogits, cache, model.zero_grads())
    dx = seen["dx"].reshape(len(contexts), n, -1)
    assert dx[real].any(axis=-1).all()
    assert (dx[~real] == 0.0).all()


def test_position_path_runs_on_per_document_tuple_blocks(monkeypatch):
    """A chunk lays out each document's distance tuples in a block of U
    rows, U the most any one document has (not the chunk's total):
    document b's own tuples first, then repeats of its first. Sentence rows
    index (B, H, S, U) position scores and edge rows (B, H, E, M), M the
    most edge tuples of any one document, and backward sums the pair
    gradients onto arrays of those shapes."""
    model = FusionModel.build(tiny_model_config(n_layers=2))
    contexts = [model.prepare(doc) for doc in mixed_docs(4)]
    n_docs, n_heads = len(contexts), model.config.n_heads
    n_tuples = max(len(ctx.pos_rows) for ctx in contexts)
    n_et = max(ctx.n_edge_tuples for ctx in contexts)
    assert n_tuples < sum(len(ctx.pos_rows) for ctx in contexts)
    assert min(len(ctx.pos_rows) for ctx in contexts) < n_tuples
    vis, pos_rows = chunk_visibility(contexts, n_heads)
    _, _, n_sent, n = vis.mask.shape
    n_edge = n - n_sent
    blocks = pos_rows.reshape(n_docs, n_tuples, 4)
    for b, ctx in enumerate(contexts):
        np.testing.assert_array_equal(blocks[b, :len(ctx.pos_rows)],
                                      ctx.pos_rows)
        assert (blocks[b, len(ctx.pos_rows):] == ctx.pos_rows[0]).all()
    # each query row reads only its own (document, head, row) block
    assert vis.n_edge_tuples == n_et
    np.testing.assert_array_equal(
        vis.cols // n_tuples,
        np.arange(n_docs * n_heads * n_sent).reshape(
            n_docs, n_heads, n_sent, 1) + np.zeros(n, dtype=int))
    np.testing.assert_array_equal(
        vis.tuple_cols // n_et,
        np.arange(n_docs * n_heads * n_edge).reshape(
            n_docs, n_heads, n_edge, 1) + np.zeros(3, dtype=int))

    pe = position_embedding(model.position_table, pos_rows,
                            model.params["pos/W_p"])[1]
    rng = np.random.default_rng(2)
    x = rng.normal(size=(n_docs * n, model.config.d_model))
    heads = model.layer_heads(0)
    out, cache = head_forward(x, pe, vis, heads)
    sizes = []
    bincount = np.bincount

    def spy(*args, **kwargs):
        counts = bincount(*args, **kwargs)
        sizes.append(len(counts))
        return counts

    monkeypatch.setattr(np, "bincount", spy)
    head_backward(rng.normal(size=out.shape), cache, x, pe, heads,
                  np.zeros_like(x), np.zeros_like(pe))
    assert sizes == [n_docs * n_heads * n_sent * n_tuples,
                     n_docs * n_heads * n_edge * n_et]


def test_padded_tuple_rows_are_inert():
    """No pair maps to a padded tuple row: it gets exactly zero dpe, and
    what it holds changes no logit and no gradient bit, pos/W_p's
    included."""
    model = FusionModel.build(tiny_model_config(n_layers=2))
    contexts = [model.prepare(doc) for doc in mixed_docs(4)]
    vis, pos_rows = chunk_visibility(contexts, model.config.n_heads)
    n_tuples = len(pos_rows) // len(contexts)
    padded = np.zeros(len(pos_rows), dtype=bool)
    for b, ctx in enumerate(contexts):
        padded[b * n_tuples + len(ctx.pos_rows):(b + 1) * n_tuples] = True
    assert padded.any()

    pe = position_embedding(model.position_table, pos_rows,
                            model.params["pos/W_p"])[1]
    n = vis.mask.shape[3]
    rng = np.random.default_rng(4)
    x = rng.normal(size=(len(contexts) * n, model.config.d_model))
    for layer, queries in ((0, vis), (1, vis.sentence_queries())):
        heads = model.layer_heads(layer)
        out, cache = head_forward(x, pe, queries, heads)
        dpe = np.zeros_like(pe)
        head_backward(rng.normal(size=out.shape), cache, x, pe, heads,
                      np.zeros_like(x), dpe)
        assert (dpe[padded] == 0.0).all() and dpe[~padded].any()

    def run(pad_with):
        def padded_with(ctxs, n_heads, dtype):
            chunk, rows = chunk_visibility(ctxs, n_heads, dtype)
            rows[padded] = pad_with
            return chunk, rows

        saved = fusion_model.chunk_visibility
        fusion_model.chunk_visibility = padded_with
        try:
            logits, _, cache = model.forward_context(contexts)
            grads = model.zero_grads()
            model.backward_from_logits(np.ones_like(logits), cache, grads)
        finally:
            fusion_model.chunk_visibility = saved
        return logits, grads

    logits, grads = run(pos_rows[padded])
    for pad_with in (pos_rows[~padded][-1], 0):
        other_logits, other_grads = run(pad_with)
        np.testing.assert_array_equal(other_logits, logits)
        for name in grads:
            np.testing.assert_array_equal(other_grads[name], grads[name])


@pytest.mark.parametrize("variants", [
    (Variant.FULL, Variant.TEXT_ONLY, Variant.TEXT_REL),
    (Variant.TEXT_ONLY, Variant.FULL, Variant.TEXT_ONLY),
])
def test_edge_free_documents_share_a_chunk_with_edged_ones(variants):
    """A chunk may hold documents without edges, before or after ones with
    edges: its logits and gradients equal the per-document runs within
    1e-10 relative."""
    model = FusionModel.build(tiny_model_config(n_layers=2))
    contexts = [model.prepare(doc, variant)
                for doc, variant in zip(mixed_docs(3), variants)]
    assert [len(ctx.edge_pos) == 0 for ctx in contexts] == [
        variant is Variant.TEXT_ONLY for variant in variants]
    _, want_grads, want_logits = one_at_a_time(model, contexts, None)
    logits, _, cache = model.forward_context(contexts)
    _assert_rel_close(logits, want_logits, 1e-10)
    dlogits = softmax(logits)
    dlogits[np.arange(len(contexts)), [ctx.label for ctx in contexts]] -= 1.0
    grads = model.zero_grads()
    model.backward_from_logits(dlogits / len(contexts), cache, grads)
    for name in model.params:
        _assert_rel_close(grads[name], want_grads[name], 1e-10)


def test_gradients_match_finite_differences_across_chunks(monkeypatch):
    """Central differences on a mixed-length batch split into several padded
    chunks, every parameter tensor, as in the single-chunk check."""
    monkeypatch.setattr(fusion_model, "PAD_ROW_BUDGET", 24)
    config = tiny_model_config(d_model=16, n_heads=2, d_ffn=24,
                               n_token_buckets=8, n_entity_buckets=4)
    model = FusionModel.build(config)
    contexts = [model.prepare(doc) for doc in mixed_docs(4, seed=11)]
    chunks = chunk_order(fusion_model._context_shapes(contexts),
                         config.d_model)
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
            up = eval_loss(model, contexts)
            p[idx] = orig - eps
            down = eval_loss(model, contexts)
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
