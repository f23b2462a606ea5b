"""The last fusion layer runs its sentence rows only, the rows the classifier
pools: logits, pooled vectors and gradients against the forward that runs
every row of every layer, and its dropout masks against the last block of
each document's draw."""

import numpy as np
import pytest

from cohgraph.fusion.masking import softmax
from cohgraph.fusion.model import (DropoutStream, FusionModel, NumericalError,
                                   chunk_visibility)
from cohgraph.synth import SynthProfile, synth_generate
from cohgraph.variants import Variant

from conftest import make_demo_document, tiny_model_config
from oracles import (all_rows_forward, chunk_dropout_keep, dropout_blocks,
                     eval_loss)

# the first and third documents keep their edges, the second has none
VARIANTS = (Variant.FULL, Variant.TEXT_ONLY, Variant.TEXT_REL)


def mixed_docs(n=3, seed=3):
    profile = SynthProfile(name="mixed", n_sentences=(3, 7),
                           tokens_per_sentence=(3, 5), domain_tags=("synthA",))
    return [make_demo_document()] + synth_generate(n - 1, seed=seed,
                                                   profile=profile)


def mixed_chunk(model):
    """Contexts of documents with and without edges, in one chunk."""
    contexts = [model.prepare(doc, variant)
                for doc, variant in zip(mixed_docs(), VARIANTS)]
    assert [len(ctx.edge_keys) > 0 for ctx in contexts] == [True, False, True]
    return contexts


def _assert_rel_close(got, want, rel=1e-12):
    """Max absolute difference within rel of the largest |want| entry."""
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=rel * max(np.max(np.abs(want)), 1e-300))


def _grads(model, cache, dlogits):
    grads = model.zero_grads()
    model.backward_from_logits(dlogits, cache, grads)
    return grads


@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize("train", [False, True])
def test_matches_the_all_rows_forward(n_layers, train):
    """Logits, the pooled vector and every parameter gradient equal the
    all-rows forward's within 1e-12 relative, in eval mode and with
    dropout, on a chunk mixing documents with and without edges."""
    model = FusionModel.build(tiny_model_config(
        n_layers=n_layers, dropout_rate=0.2))
    contexts = mixed_chunk(model)
    dropout = DropoutStream(5, 1, 2) if train else None
    doc_indices = [4, 0, 7]
    logits, pooled, cache = model.forward_context(
        contexts, dropout=dropout, doc_index=doc_indices)
    want_logits, want_pooled, want_cache = all_rows_forward(
        model, contexts, dropout, doc_indices)
    _assert_rel_close(logits, want_logits)
    _assert_rel_close(pooled, want_pooled)

    dlogits = softmax(logits)
    dlogits[np.arange(len(contexts)), [ctx.label for ctx in contexts]] -= 1.0
    grads = _grads(model, cache, dlogits)
    want_grads = _grads(model, want_cache, dlogits)
    for name in model.params:
        _assert_rel_close(grads[name], want_grads[name])
    # edge embeddings still learn through the last layer's keys and values
    assert grads["embed/relation"].any() and grads["embed/entity"].any()


def test_last_layer_computes_sentence_rows_only():
    model = FusionModel.build(tiny_model_config(n_layers=2))
    contexts = mixed_chunk(model)
    _, _, cache = model.forward_context(contexts)
    n_sent = max(len(ctx.sentences) for ctx in contexts)
    n = n_sent + max(len(ctx.edge_keys) for ctx in contexts)
    first, last = cache["layers"]
    assert first["concat"].shape[0] == len(contexts) * n
    assert last["concat"].shape[0] == len(contexts) * n_sent
    assert last["hidden"].shape[0] == len(contexts) * n_sent
    assert cache["pool"].shape == (len(contexts), n_sent)


@pytest.mark.parametrize("earlier_layers", [0, 1, 2, 3])
def test_last_layer_dropout_masks_are_the_sentence_rows_of_all_rows_masks(
        earlier_layers):
    """The last layer's (attention, FFN) masks are the sentence rows of the
    masks the all-rows forward uses, and each document's are the last block
    of its draw, S_b rows each, on its S_b sentence rows of the chunk's S,
    zero on the padding; every earlier layer's masks are the all-rows
    ones."""
    n_layers = earlier_layers + 1
    model = FusionModel.build(tiny_model_config(n_layers=n_layers,
                                                dropout_rate=0.3))
    contexts = mixed_chunk(model)
    stream = DropoutStream(11, 2, 5)
    doc_indices = [3, 1, 8]
    vis = chunk_visibility(contexts, model.config.n_heads)[0]
    n_docs, _, n_sent, n = vis.mask.shape
    d = model.config.d_model
    keep = model._dropout_keep(stream, doc_indices, contexts, n_sent, n)
    all_rows = chunk_dropout_keep(model, stream, doc_indices, contexts)
    assert len(keep) == len(all_rows) == n_layers
    for got_pair, want_pair in zip(keep[:-1], all_rows[:-1]):
        for got, want in zip(got_pair, want_pair):
            np.testing.assert_array_equal(got, want)
    for sublayer, (last, want) in enumerate(zip(keep[-1], all_rows[-1])):
        assert last.shape == (n_docs * n_sent, d)
        last = last.reshape(n_docs, n_sent, d)
        np.testing.assert_array_equal(
            last, want.reshape(n_docs, n, d)[:, :n_sent])
        for b, (doc_index, ctx) in enumerate(zip(doc_indices, contexts)):
            s = len(ctx.sentences)
            block = dropout_blocks(stream, doc_index, ctx,
                                   model.config)[-1][sublayer]
            assert block.shape == (s, d)
            np.testing.assert_array_equal(
                last[b, :s], block * (1.0 / (1.0 - model.config.dropout_rate)))
            assert not last[b, s:].any()


def test_nonfinite_last_layer_names_the_second_document_of_its_chunk():
    """A NaN entity embedding that only the second document of a chunk
    reads: its sentence rows, which see that entity as a key, go non-finite
    in the last (here the only) layer, and the error names it alone."""
    model = FusionModel.build(tiny_model_config(n_layers=1))
    bare, demo = mixed_docs(2, seed=4)[::-1]
    contexts = [model.prepare(bare, Variant.TEXT_ONLY), model.prepare(demo)]
    # the chunk's sentence slots S are at most its edge slots, so a count
    # of n = S + E rows per document would put every row of the second
    # document's output in the first's
    n_sent = max(len(ctx.sentences) for ctx in contexts)
    assert n_sent <= len(contexts[1].edge_keys)
    name, _, rows = contexts[1].lookups[0]
    assert name == "embed/entity" and len(rows)
    model.params[name][rows[0]] = np.nan
    with pytest.raises(NumericalError) as err:
        model.forward_context(contexts)
    message = str(err.value)
    assert "after layer 0" in message
    assert repr(demo.id) in message
    assert repr(bare.id) not in message


def test_gradients_match_finite_differences_at_two_layers():
    """Central differences on the edge embeddings, which reach the last
    layer only as keys and values, and on every parameter of the last
    layer."""
    config = tiny_model_config(d_model=16, n_heads=2, d_ffn=24, n_layers=2,
                               n_token_buckets=8, n_entity_buckets=4)
    model = FusionModel.build(config)
    contexts = [model.prepare(doc, variant)
                for doc, variant in zip(mixed_docs(), VARIANTS)]
    _, grads = model.loss_and_grad_contexts(contexts)
    names = ["embed/relation", "embed/entity"] + sorted(
        name for name in model.params if name.startswith("layer1/"))
    eps = 1e-5
    for name in names:
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
