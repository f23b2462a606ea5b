"""FusionModel.prepare keeps one read-only context per (document, variant,
config) for as long as the document is alive: identity, keys, lifetime,
sharing across fits, predict keeping nothing of its own, and the memory
bound the model module states."""

import gc
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from cohgraph.documents import Document
from cohgraph.fusion import model as fusion_model
from cohgraph.fusion.config import TrainConfig
from cohgraph.fusion.model import DropoutStream, FusionModel
from cohgraph.fusion.train import FusionClassifier
from cohgraph.harness import run_cv
from cohgraph.synth import SynthProfile, synth_generate
from cohgraph.variants import Variant

from conftest import make_demo_document, tiny_model_config
from oracles import slot_order

# The O(n + U) part of a context's bound in the fusion.model docstring.
BYTES_PER_ELEMENT_AND_TUPLE = 192


def context_arrays(ctx):
    """Every array a context holds."""
    return [ctx.visible, ctx.sentence_pos, ctx.edge_keys,
            ctx.edge_pos, ctx.pos_rows, *ctx.sentences,
            *(a for _, slots, ids in ctx.lookups for a in (slots, ids))]


def assert_same_structure(got, want):
    assert got.seq == want.seq
    assert got.n_edge_tuples == want.n_edge_tuples
    for a, b in zip(context_arrays(got), context_arrays(want)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for (name, rows, ids), (want_name, want_rows, want_ids) in zip(
            got.lookups, want.lookups):
        assert name == want_name
        assert np.array_equal(rows, want_rows) and np.array_equal(ids, want_ids)


def test_same_document_and_key_return_the_same_context():
    doc = make_demo_document()
    model = FusionModel.build(tiny_model_config())
    ctx = model.prepare(doc)
    assert model.prepare(doc) is ctx
    assert model.prepare(doc, Variant.FULL) is ctx
    # another model with an equal config shares it; any other config does not
    assert FusionModel.build(tiny_model_config()).prepare(doc) is ctx
    other = FusionModel.build(tiny_model_config(seed=3))
    assert other.prepare(doc) is not ctx
    assert_same_structure(other.prepare(doc), ctx)
    # an equal document is another document
    assert model.prepare(make_demo_document()) is not ctx


@pytest.mark.parametrize("overrides", [
    {"max_elements": 6},
    {"max_relative_distance": 3},
    {"n_token_buckets": 32},
    {"n_entity_buckets": 4},
])
def test_each_structural_key_field_gives_its_own_context(overrides):
    doc = make_demo_document()
    base = FusionModel.build(tiny_model_config()).prepare(doc)
    changed = FusionModel.build(tiny_model_config(**overrides)).prepare(doc)
    assert changed is not base
    model = FusionModel.build(tiny_model_config(**overrides))
    assert model.prepare(doc) is changed
    assert_same_structure(changed,
                          model.prepare_sequence(doc, model.sequence_for(doc)))


def test_each_variant_gives_its_own_context():
    doc = make_demo_document()
    model = FusionModel.build(tiny_model_config())
    contexts = [model.prepare(doc, variant) for variant in Variant]
    assert len({id(ctx) for ctx in contexts}) == len(Variant)


def counted_prepare_sequence(monkeypatch):
    """The ids of the documents prepare_sequence is called on, in order."""
    calls = []
    prepare_sequence = FusionModel.prepare_sequence

    def counted(self, doc, seq):
        calls.append(doc.id)
        return prepare_sequence(self, doc, seq)

    monkeypatch.setattr(FusionModel, "prepare_sequence", counted)
    return calls


def test_prepare_sequence_is_never_memoized(monkeypatch):
    doc = make_demo_document()
    model = FusionModel.build(tiny_model_config())
    seq = model.sequence_for(doc)
    assert model.prepare_sequence(doc, seq) is not model.prepare_sequence(doc,
                                                                          seq)
    calls = counted_prepare_sequence(monkeypatch)
    model.prepare(doc)
    model.prepare(doc)
    assert calls == [doc.id]


def test_entry_is_dropped_with_its_document():
    doc = make_demo_document()
    key = id(doc)
    ctx = FusionModel.build(tiny_model_config()).prepare(doc)
    assert key in fusion_model._CONTEXTS
    ref = weakref.ref(ctx)
    del doc, ctx
    gc.collect()
    assert key not in fusion_model._CONTEXTS
    assert ref() is None


def _reachable(root):
    """Every object reachable from root through gc.get_referents, without
    descending into classes, modules or functions (which reach everything)."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))


def test_no_context_references_its_document():
    model = FusionModel.build(tiny_model_config())
    for doc in [make_demo_document()] + synth_generate(4, seed=2):
        for variant in Variant:
            ctx = model.prepare(doc, variant)
            reached = list(_reachable(ctx))
            assert len(reached) > 10
            assert not any(isinstance(obj, Document) for obj in reached)


def test_shared_context_arrays_are_read_only():
    ctx = FusionModel.build(tiny_model_config()).prepare(make_demo_document())
    for arr in context_arrays(ctx):
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    with pytest.raises(ValueError):
        ctx.visible[0, 0] = False


def test_compact_dtypes_hold_their_range():
    """Each index array is in the smallest unsigned dtype holding it, and
    the tuples it names are the pairs' distance tuples."""
    profile = SynthProfile(name="long", n_sentences=(30, 30),
                           explicit_prob=1.0, medium_entity_prob=1.0)
    model = FusionModel.build(tiny_model_config())
    for doc in [make_demo_document()] + synth_generate(3, seed=4,
                                                       profile=profile):
        ctx = model.prepare(doc)
        dist = fusion_model.distance_indices(
            ctx.seq, model.config.max_relative_distance)
        order = slot_order(ctx.seq)
        n_sent = len(ctx.sentences)
        assert ctx.visible.dtype == np.bool_
        for arr in (ctx.sentence_pos, ctx.edge_keys,
                    ctx.edge_pos, ctx.pos_rows):
            assert arr.dtype == np.min_scalar_type(arr.max(initial=0))
        assert ctx.pos_rows.dtype == np.uint8
        sentence_tuples = ctx.pos_rows[ctx.sentence_pos]
        assert np.array_equal(sentence_tuples[ctx.visible],
                              dist[order[:n_sent, None], order][ctx.visible])
        assert np.array_equal(ctx.pos_rows[ctx.edge_pos],
                              dist[order[n_sent:, None], order[ctx.edge_keys]])
        # the edge rows' tuples come first, and no sentence row uses one
        assert (ctx.edge_pos < ctx.n_edge_tuples).all()
        assert (ctx.sentence_pos[ctx.visible] >= ctx.n_edge_tuples).all()


@pytest.mark.parametrize("overrides", [
    {"n_layers": 2, "dropout_rate": 0.2},
    {"max_relative_distance": 3},
])
def test_memoized_contexts_give_bit_identical_results(overrides):
    """Logits, loss and gradients with dropout on are exactly those of
    contexts prepared afresh, in chunks of several documents."""
    profile = SynthProfile(name="mixed", n_sentences=(3, 20),
                           tokens_per_sentence=(3, 5))
    docs = [make_demo_document()] + synth_generate(7, seed=9, profile=profile)
    model = FusionModel.build(tiny_model_config(**overrides))
    for variant in (Variant.FULL, Variant.TEXT_REL):
        memo = [model.prepare(doc, variant) for doc in docs]
        fresh = [model.prepare_sequence(doc, model.sequence_for(doc, variant))
                 for doc in docs]
        stream = DropoutStream(3, 1, 1)
        got = model.loss_and_grad_contexts(memo, dropout=stream)
        want = model.loss_and_grad_contexts(fresh, dropout=stream)
        assert got[0] == want[0]
        for name in model.params:
            assert np.array_equal(got[1][name], want[1][name]), name
        assert np.array_equal(model.forward_context(memo)[0],
                              model.forward_context(fresh)[0])
        assert model.predict(docs, variant) == [
            int(np.argmax(model.forward_context(ctx)[0])) for ctx in fresh]


def test_predict_keeps_nothing_it_prepares(monkeypatch):
    calls = counted_prepare_sequence(monkeypatch)
    docs = synth_generate(6, seed=8)
    model = FusionModel.build(tiny_model_config())
    first = model.predict(docs)
    assert not any(id(doc) in fusion_model._CONTEXTS for doc in docs)
    assert model.predict(docs) == first
    assert sorted(calls) == sorted(2 * [doc.id for doc in docs])
    # a kept context is reused, and the rest are still prepared afresh
    kept = model.prepare(docs[0])
    del calls[:]
    assert model.predict(docs) == first
    assert sorted(calls) == sorted(doc.id for doc in docs[1:])
    assert fusion_model._CONTEXTS[id(docs[0])] == {
        (Variant.FULL, model.config): kept}


def test_run_cv_prepares_each_document_once_per_variant_in_training(
        monkeypatch):
    """Over a whole run, each document is prepared exactly once per
    variant: the first fold's held-out documents are prepared through the
    kept contexts when they are predicted, and every later fit reuses
    them."""
    docs = synth_generate(12, seed=6, profile=SynthProfile(
        name="cv", n_sentences=(3, 5), tokens_per_sentence=(3, 4)))
    calls = counted_prepare_sequence(monkeypatch)
    variants = (Variant.TEXT_ONLY, Variant.FULL)
    for variant in variants:
        train_config = TrainConfig(epochs=1, batch_size=8, seed=0,
                                   variant=variant)
        run_cv(docs, 3, lambda: FusionClassifier(tiny_model_config(),
                                                 train_config), seed=0)
    assert sorted(calls) == sorted(len(variants) * [doc.id for doc in docs])


def test_retained_memory_is_within_the_stated_bound():
    """20 prepared documents of 140-150 elements hold less than 1.5 times
    S * n bytes of sentence-row visibility plus S * n * itemsize of their
    tuple index plus 192 bytes per element and distinct tuple each."""
    profile = SynthProfile(name="long", n_sentences=(36, 38),
                           explicit_prob=1.0, medium_entity_prob=1.0)
    model = FusionModel.build(tiny_model_config())
    docs = [doc for doc in synth_generate(60, seed=3, profile=profile)
            if 140 <= len(model.sequence_for(doc)) <= 150][:20]
    assert len(docs) == 20
    # fill the token and entity bucket caches, which outlive the contexts
    for doc in docs:
        model.prepare_sequence(doc, model.sequence_for(doc))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        contexts = [model.prepare(doc) for doc in docs]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    bound = sum(ctx.visible.size * (1 + ctx.sentence_pos.itemsize)
                + BYTES_PER_ELEMENT_AND_TUPLE * (len(ctx.seq)
                                                 + len(ctx.pos_rows))
                for ctx in contexts)
    # under a third of the elements are sentences, so the kept visibility
    # is under a third of the n * n the dense mask took
    assert all(3 * ctx.visible.size < len(ctx.seq) ** 2 for ctx in contexts)
    assert held < 1.5 * bound
