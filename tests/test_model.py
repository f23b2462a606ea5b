"""Fusion model: encoder, layers, forward properties, gradients, checkpoints."""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from cohgraph.cli import main as cli_main
from cohgraph.documents import (AnnotationSet, Document, Sentence)
from cohgraph.flat import FlatSequence
from cohgraph.fusion.config import RETIRED_FIELDS, ModelConfig
from cohgraph.fusion.encoder import HashBucketSentenceEncoder, stable_bucket
from cohgraph.fusion.model import (ContractError, DropoutStream, FusionModel,
                                   NumericalError, _softplus, _softplus_grad,
                                   chunk_visibility, dropout_threshold,
                                   expected_param_shapes, keep_lanes,
                                   layer_norm_forward)
from cohgraph.keyed import DROPOUT
from cohgraph.labels import CoherenceLabel
from cohgraph.synth import SynthProfile, synth_generate
from cohgraph.variants import FUSION_VARIANTS, Variant

from conftest import (JSON_VALUES, json_paths, make_demo_document,
                      replaced_at, tiny_model_config)
from oracles import dropout_blocks


def small_docs(n=3, seed=2, n_sentences=(3, 4)):
    profile = SynthProfile(name="unit", n_sentences=n_sentences,
                           tokens_per_sentence=(4, 6),
                           domain_tags=("synthA",))
    return synth_generate(n, seed=seed, profile=profile)


def encode(enc, tokens, params):
    return enc.encode_prepared([enc.prepare(tokens)], params)[0]


class TestSentenceEncoder:
    def _encoder(self):
        enc = HashBucketSentenceEncoder(8, 16)
        params = {enc.PARAM_NAME: np.random.default_rng(0).normal(
            0.0, 0.5, (16, 8))}
        return enc, params

    def test_deterministic_for_identical_tokens(self):
        enc, params = self._encoder()
        a = encode(enc, ("the", "cat"), params)
        b = encode(enc, ("the", "cat"), params)
        np.testing.assert_array_equal(a, b)

    def test_mean_of_repeats_equals_single(self):
        enc, params = self._encoder()
        np.testing.assert_array_equal(encode(enc, ("a", "a"), params),
                                      encode(enc, ("a",), params))

    def test_disjoint_halves_combine_as_weighted_mean(self):
        """Linearity of the mean over token vectors."""
        enc, params = self._encoder()
        first = ("one", "two", "three")
        second = ("four", "five")
        whole = encode(enc, first + second, params)
        combined = (len(first) * encode(enc, first, params)
                    + len(second) * encode(enc, second, params)) / 5
        np.testing.assert_allclose(whole, combined, atol=1e-15)

    def test_empty_tokens_give_zero_vector_and_flag(self):
        enc, params = self._encoder()
        assert not enc.saw_empty
        vec = encode(enc, (), params)
        np.testing.assert_array_equal(vec, np.zeros(8))
        assert enc.saw_empty


class TestFlatScatter:
    """The embedding gradients scatter through a flat view of each table;
    the oracle is numpy's 2-D np.add.at, bit for bit, with repeated ids
    onto a non-zero table."""

    def test_encoder_gradient_matches_2d_add_at(self):
        enc = HashBucketSentenceEncoder(8, 16)
        table = np.random.default_rng(1).standard_normal((16, 8))
        prepared = [np.array([3, 3, 5], dtype=np.int64),
                    np.array([], dtype=np.int64),
                    np.array([5, 1, 3, 3], dtype=np.int64)]
        dvecs = np.random.default_rng(2).standard_normal((3, 8))
        grads = {enc.PARAM_NAME: table.copy()}
        enc.accumulate_grad_prepared(prepared, dvecs, grads)
        counts = np.array([p.size for p in prepared])
        expected = table.copy()
        np.add.at(expected, np.concatenate(prepared),
                  np.repeat(dvecs / np.maximum(counts, 1)[:, None], counts,
                            axis=0))
        np.testing.assert_array_equal(grads[enc.PARAM_NAME], expected)

    def test_embed_backward_matches_2d_add_at(self):
        model = FusionModel.build(tiny_model_config())
        contexts = [model.prepare(doc) for doc in small_docs(4)]
        vis, _ = chunk_visibility(contexts, model.config.n_heads)
        _, _, n_sent, n = vis.mask.shape
        _, index = model._embed(contexts, n_sent, n)
        sentence_rows, sentences, lookups = index
        assert any(len(np.unique(ids)) < len(ids) for _, _, ids in lookups)
        rng = np.random.default_rng(3)
        dx = rng.standard_normal((len(contexts) * n, model.config.d_model))
        tables = {name: rng.standard_normal(model.params[name].shape)
                  for name in [HashBucketSentenceEncoder.PARAM_NAME]
                  + [name for name, _, _ in lookups]}
        grads = {name: table.copy() for name, table in tables.items()}
        model._embed_backward(dx, index, grads)
        expected = {name: table.copy() for name, table in tables.items()}
        counts = np.array([p.size for p in sentences])
        np.add.at(expected[HashBucketSentenceEncoder.PARAM_NAME],
                  np.concatenate(sentences),
                  np.repeat(dx[sentence_rows] / np.maximum(counts, 1)[:, None],
                            counts, axis=0))
        for name, rows, ids in lookups:
            np.add.at(expected[name], ids, dx[rows])
        for name in tables:
            np.testing.assert_array_equal(grads[name], expected[name], name)


class TestStableBucket:
    def test_memoized_buckets_equal_a_fresh_blake2b(self):
        for text in ("John", "airport", "", "ünïcode", "John"):
            for n_buckets in (7, 128, 1 << 20):
                digest = hashlib.blake2b(text.encode("utf-8"),
                                         digest_size=8).digest()
                want = int.from_bytes(digest, "big") % n_buckets
                assert stable_bucket(text, n_buckets) == want
                assert stable_bucket(text, n_buckets) == want  # cached

    def test_cache_is_bounded(self):
        maxsize = stable_bucket.cache_info().maxsize
        assert maxsize is not None and maxsize <= 1 << 16
        for i in range(maxsize + 10):
            stable_bucket(f"token-{i}", 512)
        assert stable_bucket.cache_info().currsize <= maxsize


class TestRectifier:
    Z = np.concatenate([np.linspace(-800.0, 800.0, 160_001),
                        [-745.1, -708.5, -37.0, -1e-9, 0.0, 1e-9, 37.0, 709.9]])

    def test_softplus_matches_logaddexp(self):
        np.testing.assert_allclose(_softplus(self.Z),
                                   np.logaddexp(0.0, self.Z),
                                   rtol=1e-15, atol=0)

    def test_softplus_derivative_from_output_matches_sigmoid(self):
        """-expm1(-softplus(z)) against the exact logistic function, each
        tail computed without cancellation."""
        z = self.Z
        sigmoid = np.empty_like(z)
        neg = z < 0
        e = np.exp(z[neg])
        sigmoid[neg] = e / (1.0 + e)
        sigmoid[~neg] = 1.0 / (1.0 + np.exp(-z[~neg]))
        np.testing.assert_allclose(
            _softplus_grad(_softplus(z)), sigmoid,
            rtol=1e-15, atol=1e-300)


class TestLayerForward:
    def test_zero_branches_reduce_to_stacked_layer_norms(self):
        """With the attention projection and FFN second map zeroed, the layer
        is layer-norm of layer-norm of the input (the residual path), on
        every row it computes: the sentence rows, as it is the last."""
        model = FusionModel.build(tiny_model_config())
        model.params["layer0/W_o"][:] = 0.0
        model.params["layer0/b_o"][:] = 0.0
        model.params["layer0/ffn/W2"][:] = 0.0
        model.params["layer0/ffn/b2"][:] = 0.0
        ctx = model.prepare(small_docs(1)[0])
        _, _, cache = model.forward_context(ctx)
        emb, out = cache["layers"][0]["x_in"], cache["x_out"]
        ones = np.ones(model.config.d_model)
        zeros = np.zeros(model.config.d_model)
        expected, _ = layer_norm_forward(emb, ones, zeros)
        expected, _ = layer_norm_forward(expected, ones, zeros)
        np.testing.assert_array_equal(out, expected[:len(ctx.sentences)])

    def test_shape_contract(self):
        """Every layer reads all n rows; every layer but the last writes
        them, and the last writes the S sentence rows."""
        model = FusionModel.build(tiny_model_config(n_layers=2))
        d = model.config.d_model
        for doc in small_docs(3):
            ctx = model.prepare(doc)
            _, _, cache = model.forward_context(ctx)
            for layer_cache in cache["layers"]:
                assert layer_cache["x_in"].shape == (len(ctx.seq), d)
            assert cache["x_out"].shape == (len(ctx.sentences), d)

    def test_eval_mode_is_bit_deterministic(self):
        model = FusionModel.build(tiny_model_config())
        ctx = model.prepare(small_docs(1)[0])
        np.testing.assert_array_equal(model.forward_context(ctx)[2]["x_out"],
                                      model.forward_context(ctx)[2]["x_out"])

    def test_nonfinite_activation_names_layer(self):
        model = FusionModel.build(tiny_model_config())
        model.params["layer0/ffn/W2"][0, 0] = np.nan
        doc = small_docs(1)[0]
        with pytest.raises(NumericalError) as err:
            model.forward(doc)
        assert "layer 0" in str(err.value)
        assert repr(doc.id) in str(err.value)


class TestForward:
    def test_logits_shape_and_finite(self):
        model = FusionModel.build(tiny_model_config())
        for doc in small_docs(4):
            logits, pooled = model.forward(doc)
            assert logits.shape == (3,)
            assert pooled.shape == (model.config.d_model,)
            assert np.isfinite(logits).all()

    def test_permutation_of_edge_elements_preserves_logits(self):
        """Attention pooling is a set function of the non-sentence elements."""
        model = FusionModel.build(tiny_model_config())
        rng = np.random.default_rng(0)
        for doc in small_docs(10, seed=5, n_sentences=(4, 7)):
            seq = model.sequence_for(doc)
            base, _, _ = model.forward_context(model.prepare_sequence(doc, seq))
            n_sent = seq.n_sentences
            tail = list(seq.elements[n_sent:])
            if len(tail) < 2:
                continue
            perm = rng.permutation(len(tail))
            shuffled = FlatSequence(
                seq.elements[:n_sent] + tuple(tail[i] for i in perm),
                seq.n_sentences)
            permuted, _, _ = model.forward_context(
                model.prepare_sequence(doc, shuffled))
            np.testing.assert_allclose(permuted, base, rtol=0, atol=1e-6)

    def test_edge_free_document_equals_textonly_path(self):
        """No edges means the Full pipeline IS the TextOnly pipeline."""
        model = FusionModel.build(tiny_model_config())
        doc = Document(
            id="bare",
            sentences=(Sentence(1, "alpha beta", ("alpha", "beta")),
                       Sentence(2, "gamma delta", ("gamma", "delta"))),
            label=CoherenceLabel.LOW,
            annotations=AnnotationSet()).validate()
        full, _ = model.forward(doc, variant=Variant.FULL)
        textonly, _ = model.forward(doc, variant=Variant.TEXT_ONLY)
        np.testing.assert_array_equal(full, textonly)

    def test_textonly_ignores_annotations(self):
        """TextOnly logits are identical with and without annotations."""
        model = FusionModel.build(tiny_model_config())
        doc = make_demo_document()
        stripped = Document(id=doc.id, sentences=doc.sentences,
                            label=doc.label, domain_tag=doc.domain_tag,
                            annotations=AnnotationSet()).validate()
        a, _ = model.forward(doc, variant=Variant.TEXT_ONLY)
        b, _ = model.forward(stripped, variant=Variant.TEXT_ONLY)
        np.testing.assert_array_equal(a, b)

    def test_long_document_forward_stays_under_memory_bound(self):
        """A ~300-element document at the default config: the position path
        holds (U, 4 * d_model) features and each head (S, n) and (E, n)
        score blocks, nothing of shape (n * n, d_model) (which alone would
        be 176 MiB here)."""
        profile = SynthProfile(name="long", n_sentences=(76, 76),
                               explicit_prob=1.0, medium_entity_prob=1.0)
        doc = synth_generate(3, seed=4, profile=profile)[2]
        model = FusionModel.build(ModelConfig())
        ctx = model.prepare(doc)
        assert 280 <= len(ctx.seq) <= 320
        tracemalloc.start()
        try:
            model.forward_context(ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2 ** 20

    def test_predict_out_of_memory_names_the_chunk_documents(self,
                                                           monkeypatch):
        model = FusionModel.build(tiny_model_config())
        docs = small_docs(2)

        def forward_context(self, contexts, *args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(FusionModel, "forward_context", forward_context)
        with pytest.raises(MemoryError) as err:
            model.predict(docs)
        for doc in docs:
            assert repr(doc.id) in str(err.value)

    def test_repeated_eval_calls_are_bit_identical(self):
        model = FusionModel.build(tiny_model_config())
        doc = small_docs(1)[0]
        first, _ = model.forward(doc)
        for _ in range(3):
            again, _ = model.forward(doc)
            np.testing.assert_array_equal(first, again)


class TestLossAndGrad:
    def test_uniform_logits_loss_is_log_three(self):
        model = FusionModel.build(tiny_model_config())
        model.params["clf/W"][:] = 0.0
        model.params["clf/b"][:] = 0.0
        loss, _ = model.loss_and_grad_contexts(
            [model.prepare(doc) for doc in small_docs(3)])
        assert loss == pytest.approx(np.log(3.0), abs=1e-12)

    def test_unused_relation_embedding_gradient_is_exactly_zero(self):
        model = FusionModel.build(tiny_model_config())
        docs = small_docs(3)
        used = set()
        for doc in docs:
            for el in model.sequence_for(doc).elements:
                if el.kind.name == "RELATION":
                    used.add(model.registry.sense_index(el.payload))
        unused = sorted(set(range(30)) - used)
        assert unused, "fixture should leave some senses unused"
        _, grads = model.loss_and_grad_contexts(
            [model.prepare(doc) for doc in docs])
        for row in unused:
            np.testing.assert_array_equal(grads["embed/relation"][row],
                                          np.zeros(model.config.d_model))
        assert any(grads["embed/relation"][row].any() for row in used)

    def test_unlabeled_document_is_contract_error(self):
        model = FusionModel.build(tiny_model_config())
        doc = small_docs(1)[0]
        unlabeled = Document(id=doc.id, sentences=doc.sentences, label=None,
                             annotations=doc.annotations)
        with pytest.raises(ContractError):
            model.loss_and_grad_contexts([model.prepare(unlabeled)])

    def test_context_loss_rejects_unlabeled_and_empty_batches(self):
        model = FusionModel.build(tiny_model_config())
        doc = small_docs(1)[0]
        unlabeled = Document(id="no-label", sentences=doc.sentences,
                             label=None, annotations=doc.annotations)
        with pytest.raises(ContractError, match="no-label"):
            model.context_loss([model.prepare(doc), model.prepare(unlabeled)])
        with pytest.raises(ContractError, match="empty"):
            model.context_loss([])

    def test_gradients_match_finite_differences(self):
        """Hand-written reverse mode vs central differences, norm-wise."""
        config = tiny_model_config(d_model=16, n_heads=2, d_ffn=24,
                                   n_token_buckets=8, n_entity_buckets=4)
        model = FusionModel.build(config)
        contexts = [model.prepare(doc)
                    for doc in small_docs(2, n_sentences=(3, 3))]
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


def _doc_keep(model, stream, ctx, doc_index=0):
    """The dropout masks of ctx run as a chunk of one, keyed by doc_index."""
    n_sent = len(ctx.sentences)
    return model._dropout_keep(stream, [doc_index], [ctx], n_sent,
                               n_sent + len(ctx.edge_keys))


class TestDropoutStream:
    """One draw per document and step, keyed by (seed, DROPOUT) and
    countered by (0, epoch, step, doc_index), laid out as DropoutStream
    documents, its lanes compared with round(rate * 2^32) at the model's
    dropout rate."""

    def test_same_coordinates_same_mask(self):
        model = FusionModel.build(tiny_model_config(n_layers=2,
                                                    dropout_rate=0.5))
        ctx = model.prepare(make_demo_document())
        stream = DropoutStream(seed=3, epoch=2, step=4)
        a = _doc_keep(model, stream, ctx, 1)
        _doc_keep(model, stream, ctx, 2)
        b = _doc_keep(model, stream, ctx, 1)
        for got, want in zip(a, b):
            np.testing.assert_array_equal(np.stack(got), np.stack(want))

    def test_distinct_coordinates_differ(self):
        stream = DropoutStream(seed=3, epoch=2, step=4)
        a = stream.words(1, 30)
        assert not np.array_equal(a, stream.words(2, 30))
        assert not np.array_equal(a, stream.at(2, 5).words(1, 30))
        assert not np.array_equal(a, stream.at(3, 4).words(1, 30))
        assert not np.array_equal(a, DropoutStream(4, 2, 4).words(1, 30))

    @pytest.mark.parametrize("seed, coords, shape", [
        (0, (0, 0, 0), (19, 32)),
        (3, (2, 4, 1), (5, 6)),
        (12345, (7, 0, 31), (140, 16)),
        (2 ** 40 + 5, (1, 9, 2), (1, 1)),
    ])
    def test_draws_are_a_fresh_philox_stream_per_coordinate(self, seed,
                                                            coords, shape):
        """A document's words are the stream of a Philox generator keyed by
        (seed, DROPOUT) and countered by (0, epoch, step, doc_index),
        whatever was drawn before, for draws of shape's size."""
        epoch, step, doc_index = coords
        size = int(np.prod(shape))
        stream = DropoutStream(seed, epoch, step)
        stream.words(doc_index + 1, 12)
        want = np.random.Philox(
            key=np.array([seed, DROPOUT], dtype=np.uint64),
            counter=[0, epoch, step, doc_index]).random_raw(size)
        np.testing.assert_array_equal(stream.words(doc_index, size), want)

    def test_lane_order_is_pinned_by_a_hand_computed_word(self):
        """The first word of seed 7's draw for document 2 at (0, 0) is
        0xDD247B60_2C96C896: its low lane 0x2C96C896 is under the
        threshold of rate 0.3 (1,288,490,189) and its high lane 0xDD247B60
        is not, so the first unit is dropped and the second kept."""
        stream = DropoutStream(7)
        word = 0xDD247B602C96C896
        threshold = dropout_threshold(0.3)
        assert stream.words(2, 1)[0] == word
        assert threshold == 1_288_490_189
        assert word & 0xFFFFFFFF == 0x2C96C896 < threshold
        assert word >> 32 == 0xDD247B60 >= threshold
        np.testing.assert_array_equal(
            keep_lanes(np.array([word], dtype=np.uint64), threshold),
            [False, True])
        model = FusionModel.build(tiny_model_config(dropout_rate=0.3))
        attention = _doc_keep(model, stream, model.prepare(
            make_demo_document()), 2)[0][0]
        np.testing.assert_array_equal(attention[0, :2],
                                      [0.0, 1.0 / (1.0 - 0.3)])

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_a_documents_masks_are_its_documented_blocks(self, n_layers):
        """Run alone, a document's masks are the layout oracle's blocks of
        its draw, its S sentence rows then its E edge rows on every layer
        but the last and its sentence rows on the last, at either dtype."""
        stream = DropoutStream(5).at(3, 1)
        for dtype in ("float64", "float32"):
            config = tiny_model_config(n_layers=n_layers, dropout_rate=0.4,
                                       dtype=dtype)
            model = FusionModel.build(config)
            ctx = model.prepare(make_demo_document())
            assert len(ctx.edge_keys) > 0
            keep = _doc_keep(model, stream, ctx, 6)
            blocks = dropout_blocks(stream, 6, ctx, config)
            for got, want in zip(keep, blocks):
                for sublayer in range(2):
                    assert got[sublayer].dtype == np.dtype(dtype)
                    np.testing.assert_array_equal(
                        got[sublayer] == 0.0, ~want[sublayer])
                    assert set(np.unique(got[sublayer])) <= {
                        0.0, np.dtype(dtype).type(1.0 / (1.0 - 0.4))}

    def test_dropped_fraction_is_within_a_binomial_bound_of_rate(self):
        """P(drop) = threshold / 2^32 is within 2^-33 of rate, and 2^21
        lanes drop a fraction within five binomial deviations of it."""
        for rate in (1e-9, 0.1, 0.25, 1 / 3, 0.5, 0.9):
            assert abs(dropout_threshold(rate) / 2 ** 32 - rate) <= 2 ** -33
        for rate in (0.1, 0.5):
            stream = DropoutStream(11)
            n = 2 ** 21
            dropped = 1.0 - keep_lanes(stream.words(0, n // 2),
                                       dropout_threshold(rate)).mean()
            assert abs(dropped - rate) <= 5 * np.sqrt(rate * (1 - rate) / n)

    def test_inverted_scaling(self):
        model = FusionModel.build(tiny_model_config(n_layers=2,
                                                    dropout_rate=0.25))
        keep = _doc_keep(model, DropoutStream(seed=0),
                         model.prepare(make_demo_document()))
        for pair in keep:
            assert set(np.unique(np.stack(pair))) == {0.0, 1.0 / 0.75}

    def test_train_forward_uses_dropout(self):
        model = FusionModel.build(tiny_model_config(dropout_rate=0.5))
        ctx = model.prepare(small_docs(1)[0])
        eval_logits, _, _ = model.forward_context(ctx)
        train_logits, _, _ = model.forward_context(
            ctx, train_mode=True, dropout=DropoutStream(9))
        assert not np.array_equal(eval_logits, train_logits)


def split_checkpoint(data: bytes):
    """(header object, tensor bytes) of a saved checkpoint."""
    start = len(FusionModel.MAGIC) + 8
    end = start + int.from_bytes(data[len(FusionModel.MAGIC):start], "big")
    return json.loads(data[start:end]), data[end:]


def join_checkpoint(header, body: bytes) -> bytes:
    """Checkpoint bytes from a header (an object, or its bytes) and the
    tensor bytes."""
    if not isinstance(header, bytes):
        header = json.dumps(header).encode("utf-8")
    return FusionModel.MAGIC + len(header).to_bytes(8, "big") + header + body


def _without(key):
    def edit(header, body):
        del header[key]
        return header, body
    return edit


def _with_config(**fields):
    def edit(header, body):
        header["config"].update(fields)
        return header, body
    return edit


def _with_tensor_dtype(dtype, count=1):
    def edit(header, body):
        for tensor in header["tensors"][:count]:
            tensor["dtype"] = dtype
        return header, body
    return edit


def _duplicate_first_tensor(header, body):
    first = header["tensors"][0]
    header["tensors"].append(first)
    return header, body + body[:8 * int(np.prod(first["shape"]))]


# (case, edit of (header, tensor bytes), text the error must contain)
MALFORMED_CHECKPOINTS = [
    ("config-missing", _without("config"), "config"),
    ("config-unknown-field", _with_config(bogus=1), "bogus"),
    ("config-invalid-value", _with_config(d_model=0), "d_model must be >= 1"),
    ("config-bad-dtype", _with_config(dtype="float16"),
     "unknown dtype 'float16'"),
    ("config-retired-share-uv", _with_config(share_uv=True),
     "retired field share_uv must be False, got True"),
    ("config-retired-pooling", _with_config(pooling="first_sentence"),
     "retired field pooling must be 'mean_sentences', got 'first_sentence'"),
    ("config-retired-encoder-trainable", _with_config(encoder_trainable=False),
     "retired field encoder_trainable must be True, got False"),
    ("config-more-layers-than-tensors", _with_config(n_layers=1000),
     "header lists 22 distinct tensors, the config has 16006"),
    ("tensor-unknown-dtype", _with_tensor_dtype(["<f8"]),
     "tensor clf/W is \"['<f8']\", but the config's dtype is float64"),
    ("tensors-in-another-dtype", _with_tensor_dtype("float32", count=99),
     "tensor clf/W is 'float32', but the config's dtype is float64"),
    ("tensors-missing", _without("tensors"), "tensors"),
    ("tensors-not-a-list", lambda h, b: ({**h, "tensors": 5}, b), "malformed"),
    ("variant-missing", _without("variant"), "variant"),
    ("variant-unknown", lambda h, b: ({**h, "variant": "Bogus"}, b),
     "'Bogus' is not a valid Variant"),
    ("variant-null", lambda h, b: ({**h, "variant": None}, b),
     "None is not a valid Variant"),
    ("variant-prompt-only",
     lambda h, b: ({**h, "variant": "FullWithExplanation"}, b),
     "variant FullWithExplanation is prompt-only"),
    ("header-not-an-object", lambda h, b: ([h], b), "not a JSON object"),
    ("header-not-json", lambda h, b: (b"{", b), "unreadable header"),
    ("header-not-utf8", lambda h, b: (b"\xff", b), "unreadable header"),
    ("tensor-truncated", lambda h, b: (h, b[:-4]),
     "tensor pos/W_p is truncated"),
    ("tensor-duplicated", _duplicate_first_tensor, "duplicate tensor clf/W"),
    ("trailing-bytes", lambda h, b: (h, b + b"\0"), "trailing bytes"),
]


_FUZZ_MODEL = FusionModel.build(tiny_model_config(d_model=8, n_heads=2,
                                                  dtype="float32"))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_mutated_checkpoint_loads_or_is_a_contract_error(tmp_path_factory,
                                                           data):
    """A format 3 d8 checkpoint with a node of its header replaced by any
    JSON value, one bit flipped or the file cut short loads to a model or
    raises ContractError naming the path, never another exception. A bit
    flipped in a tensor loads: nothing in format 3 can tell."""
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    _FUZZ_MODEL.save(path)
    data_bytes = path.read_bytes()
    kind = data.draw(st.sampled_from(["header", "bit", "cut"]))
    if kind == "header":
        header, body = split_checkpoint(data_bytes)
        where = data.draw(st.sampled_from(list(json_paths(header))))
        data_bytes = join_checkpoint(
            replaced_at(header, where, data.draw(JSON_VALUES)), body)
    elif kind == "bit":
        bit = data.draw(st.integers(0, 8 * len(data_bytes) - 1))
        flipped = bytearray(data_bytes)
        flipped[bit // 8] ^= 1 << bit % 8
        data_bytes = bytes(flipped)
    else:
        data_bytes = data_bytes[:data.draw(st.integers(0, len(data_bytes) - 1))]
    path.write_bytes(data_bytes)
    try:
        model = FusionModel.load(path)
    except ContractError as err:
        assert str(path) in str(err)
    else:
        assert model.variant in FUSION_VARIANTS


class TestCheckpoint:
    def test_roundtrip_preserves_bits_and_config(self, tmp_path):
        model = FusionModel.build(tiny_model_config())
        model.variant = Variant.TEXT_REL
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded = FusionModel.load(path)
        assert loaded.config == model.config
        assert loaded.variant is Variant.TEXT_REL
        for name, arr in model.params.items():
            np.testing.assert_array_equal(arr, loaded.params[name])
        doc = small_docs(1)[0]
        np.testing.assert_array_equal(model.forward(doc)[0],
                                      loaded.forward(doc)[0])

    def test_identical_models_serialize_identically(self, tmp_path):
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        FusionModel.build(tiny_model_config()).save(a)
        FusionModel.build(tiny_model_config()).save(b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_save_load_save_is_byte_identical(self, tmp_path, dtype):
        """Format 3 records the dtype and writes each tensor in it; load
        reads it back as it was, so saving again repeats every byte."""
        model = FusionModel.build(tiny_model_config(dtype=dtype))
        first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
        model.save(first)
        loaded = FusionModel.load(first)
        loaded.save(second)
        assert first.read_bytes() == second.read_bytes()
        header, body = split_checkpoint(first.read_bytes())
        assert header["format_version"] == 3
        assert header["config"]["dtype"] == dtype
        assert not RETIRED_FIELDS.keys() & header["config"].keys()
        assert {t["dtype"] for t in header["tensors"]} == {dtype}
        assert len(body) == np.dtype(dtype).itemsize * sum(
            arr.size for arr in model.params.values())
        for name, arr in loaded.params.items():
            assert arr.dtype == dtype
            np.testing.assert_array_equal(arr, model.params[name])

    def test_retired_fields_at_their_values_load_as_before(self, tmp_path):
        """A format 3 header that records the retired fields, as every
        checkpoint written before they were retired does, loads to the same
        model; saving it again drops them."""
        model = FusionModel.build(tiny_model_config())
        path = tmp_path / "model.ckpt"
        model.save(path)
        header, body = split_checkpoint(path.read_bytes())
        header["config"].update(RETIRED_FIELDS)
        path.write_bytes(join_checkpoint(header, body))
        loaded = FusionModel.load(path)
        assert loaded.config == model.config
        for name, arr in model.params.items():
            np.testing.assert_array_equal(loaded.params[name], arr)
        again = tmp_path / "again.ckpt"
        loaded.save(again)
        assert split_checkpoint(again.read_bytes())[1] == body
        assert not RETIRED_FIELDS.keys() & split_checkpoint(
            again.read_bytes())[0]["config"].keys()

    def test_a_header_size_beyond_the_file_is_contract_error(self, tmp_path):
        """The 8-byte header size with its top bit flipped is refused before
        anything of that size is read."""
        path = tmp_path / "model.ckpt"
        FusionModel.build(tiny_model_config()).save(path)
        data = bytearray(path.read_bytes())
        data[len(FusionModel.MAGIC)] ^= 0x80
        path.write_bytes(bytes(data))
        with pytest.raises(ContractError) as err:
            FusionModel.load(path)
        assert str(err.value).startswith(f"{path}: header of ")
        assert "longer than the file" in str(err.value)

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"garbage")
        with pytest.raises(ContractError):
            FusionModel.load(path)

    @pytest.mark.parametrize("case, edit, expect", MALFORMED_CHECKPOINTS,
                             ids=[c[0] for c in MALFORMED_CHECKPOINTS])
    def test_malformed_checkpoint_is_contract_error(self, tmp_path, case,
                                                    edit, expect):
        path = tmp_path / "model.ckpt"
        FusionModel.build(tiny_model_config()).save(path)
        header, body = split_checkpoint(path.read_bytes())
        path.write_bytes(join_checkpoint(*edit(header, body)))
        with pytest.raises(ContractError) as err:
            FusionModel.load(path)
        assert str(path) in str(err.value)
        assert expect in str(err.value)

    def test_shape_validation_lists_mismatches(self):
        config = tiny_model_config()
        params = {name: np.zeros(shape)
                  for name, shape in expected_param_shapes(config).items()}
        params["clf/W"] = np.zeros((2, 2))
        encoder = HashBucketSentenceEncoder(config.d_model,
                                            config.n_token_buckets)
        with pytest.raises(ContractError) as err:
            FusionModel(config, params, encoder)
        assert "clf/W" in str(err.value)


FIXTURES = Path(__file__).parent / "fixtures"
V1_CHECKPOINT = FIXTURES / "v1-d8.ckpt"
V2_CHECKPOINT = FIXTURES / "v2-d8.ckpt"
# written from the same commands as v1-d8.ckpt and v2-d8.ckpt, in
# tests/fixtures, by the code whose every draw (the corpus, the initial
# parameters, dropout and the shuffle) comes from cohgraph.keyed
# (v1-d8.config.json is the config file v1-d8.ckpt was trained from):
#
#     cohgraph synth corpus.jsonl --n-docs 12 --seed 5
#     cohgraph train corpus.jsonl v3-d8.ckpt --config v1-d8.config.json \
#         --seed 7
#     cohgraph train corpus.jsonl v3-d8-textrel.ckpt \
#         --config v1-d8.config.json --seed 7 --variant TextRel
#
# The format 2 fixture pins its reader and the format 1 one its refusal;
# these pin the training.
RETRAINED = FIXTURES / "v3-d8.ckpt"
RETRAINED_TEXT_REL = FIXTURES / "v3-d8-textrel.ckpt"


def _raw_tensors(data: bytes) -> dict[str, np.ndarray]:
    """Every tensor of a checkpoint's bytes as its header lists it, read
    without FusionModel."""
    header, body = split_checkpoint(data)
    tensors, offset = {}, 0
    for t in header["tensors"]:
        size = 8 * int(np.prod(t["shape"]))
        tensors[t["name"]] = np.frombuffer(
            body[offset:offset + size], dtype="<f8").reshape(t["shape"])
        offset += size
    return tensors


class TestFormat1Checkpoint:
    """tests/fixtures/v1-d8.ckpt is a format 1 checkpoint: it stores each
    head's block of a layer's head tensors as a tensor of its own and
    records no variant. Format 1 is no longer read."""

    def test_is_refused_naming_its_version(self):
        with pytest.raises(ContractError) as err:
            FusionModel.load(V1_CHECKPOINT)
        assert str(err.value) == (f"{V1_CHECKPOINT}: unsupported checkpoint "
                                  f"version 1")


class TestFormat3Checkpoint:
    """tests/fixtures/v3-d8.ckpt was written by `cohgraph train` from the
    commands above RETRAINED."""

    def test_retraining_matches_the_fixture(self, tmp_path):
        """The fixture's commands rerun here give the parameters of
        v3-d8.ckpt, written from them with every draw keyed, within 1e-12
        relative: bits across BLAS builds are not promised."""
        runner = CliRunner()
        corpus, path = tmp_path / "corpus.jsonl", tmp_path / "v2.ckpt"
        for args in (["synth", str(corpus), "--n-docs", "12", "--seed", "5"],
                     ["train", str(corpus), str(path), "--config",
                      str(FIXTURES / "v1-d8.config.json"), "--seed", "7"]):
            result = runner.invoke(cli_main, args)
            assert result.exit_code == 0, result.output
        want, got = FusionModel.load(RETRAINED), FusionModel.load(path)
        assert got.config == want.config
        assert got.variant is want.variant is Variant.FULL
        for name, arr in want.params.items():
            np.testing.assert_allclose(got.params[name], arr, rtol=0,
                                       atol=1e-12 * np.abs(arr).max())


class TestFormat2Checkpoint:
    """tests/fixtures/v2-d8.ckpt is a format 2 checkpoint: its config
    records no dtype, and its tensors are float64. It was written by
    `cohgraph train` at the last commit that wrote format 2, in
    tests/fixtures, from v1-d8.config.json without its dtype line:

        cohgraph synth corpus.jsonl --n-docs 12 --seed 5
        cohgraph train corpus.jsonl v2-d8.ckpt --config v1-d8.config.json \
            --seed 7 --variant TextRel
    """

    def test_loads_as_float64_bit_exactly(self):
        header, _ = split_checkpoint(V2_CHECKPOINT.read_bytes())
        assert header["format_version"] == 2
        assert "dtype" not in header["config"]
        raw = _raw_tensors(V2_CHECKPOINT.read_bytes())
        model = FusionModel.load(V2_CHECKPOINT)
        assert model.config.dtype == "float64"
        assert model.variant is Variant.TEXT_REL
        assert raw.keys() == model.params.keys()
        for name, arr in raw.items():
            assert model.params[name].dtype == np.float64
            np.testing.assert_array_equal(model.params[name], arr)

    def test_saved_again_only_the_header_changes(self, tmp_path):
        path = tmp_path / "v3.ckpt"
        FusionModel.load(V2_CHECKPOINT).save(path)
        header, body = split_checkpoint(path.read_bytes())
        assert header["format_version"] == 3
        assert header["config"]["dtype"] == "float64"
        assert not RETIRED_FIELDS.keys() & header["config"].keys()
        assert body == split_checkpoint(V2_CHECKPOINT.read_bytes())[1]

    def test_retraining_at_float64_matches_the_fixture(self, tmp_path):
        """The fixture's commands rerun (the config file now asks for
        float64) give the parameters of v3-d8-textrel.ckpt, written from
        them with every draw keyed, within 1e-12 relative: bits across BLAS
        builds are not promised. v2-d8.ckpt was trained with earlier
        streams."""
        runner = CliRunner()
        corpus, path = tmp_path / "corpus.jsonl", tmp_path / "v3.ckpt"
        for args in (["synth", str(corpus), "--n-docs", "12", "--seed", "5"],
                     ["train", str(corpus), str(path), "--config",
                      str(FIXTURES / "v1-d8.config.json"), "--seed", "7",
                      "--variant", "TextRel"]):
            result = runner.invoke(cli_main, args)
            assert result.exit_code == 0, result.output
        want, got = (FusionModel.load(RETRAINED_TEXT_REL),
                     FusionModel.load(path))
        assert got.config == want.config == FusionModel.load(
            V2_CHECKPOINT).config
        assert got.variant is want.variant is Variant.TEXT_REL
        for name, arr in want.params.items():
            np.testing.assert_allclose(got.params[name], arr, rtol=0,
                                       atol=1e-12 * np.abs(arr).max())


def test_param_count_is_config_deterministic():
    """One tensor per head field and layer, the heads stacked in it."""
    config = tiny_model_config()
    shapes_a = expected_param_shapes(config)
    shapes_b = expected_param_shapes(tiny_model_config())
    assert shapes_a == shapes_b
    assert len(expected_param_shapes(ModelConfig())) == 38
    assert shapes_a["layer0/W_q"] == (config.d_model, config.d_model)
    assert shapes_a["layer0/u"] == shapes_a["layer0/v"] == (config.n_heads,
                                                             config.d_head)
    assert not any("/head" in name for name in shapes_a)


@pytest.mark.parametrize("field, table", [
    ("n_token_buckets", HashBucketSentenceEncoder.PARAM_NAME),
    ("n_entity_buckets", "embed/entity"),
])
def test_a_tables_size_changes_no_other_initial_tensor(field, table):
    """Each initial tensor is drawn from a stream keyed by its own layer
    and field, so doubling one table's rows re-draws that table alone."""
    config = tiny_model_config(n_layers=2)
    before = FusionModel.build(config).params
    after = FusionModel.build(tiny_model_config(
        n_layers=2, **{field: 2 * getattr(config, field)})).params
    assert after.keys() == before.keys()
    assert [name for name, arr in before.items()
            if not np.array_equal(after[name], arr)] == [table]


def test_a_second_layer_changes_no_initial_tensor_of_the_first():
    """Going from one layer to two adds layer 1's tensors and leaves every
    tensor the one-layer model has, layer 0's and the rest, as it was;
    layer 1 draws values of its own."""
    one = FusionModel.build(tiny_model_config(n_layers=1)).params
    two = FusionModel.build(tiny_model_config(n_layers=2)).params
    assert one.keys() < two.keys()
    for name, arr in one.items():
        np.testing.assert_array_equal(two[name], arr, err_msg=name)
    for field in ("W_q", "u", "ffn/W1"):
        assert not np.array_equal(two[f"layer1/{field}"],
                                  two[f"layer0/{field}"])


@pytest.mark.parametrize("overrides", [
    {"d_ffn": 0},
    {"max_relative_distance": 1},
    {"n_heads": 4},
    {"n_layers": 2},
    {"max_elements": 4},
])
def test_gradcheck_covers_config_branches(overrides):
    """Finite-difference spot check on a few tensors under configs that
    take other paths through the model: the default FFN width (d_ffn 0,
    so 4 * d_model), distances
    clipped so that most pairs share a tuple, four heads, an all-rows layer
    under the sentence-rows last layer, and entity elements dropped at the
    cap."""
    config = tiny_model_config(**{
        "d_model": 16, "n_heads": 2, "d_ffn": 24, "n_token_buckets": 8,
        "n_entity_buckets": 4, **overrides})
    model = FusionModel.build(config)
    docs = small_docs(2, n_sentences=(3, 3))
    contexts = [model.prepare(doc) for doc in docs]
    _, grads = model.loss_and_grad_contexts(contexts)
    eps = 1e-5
    for name in ("pos/W_p", "layer0/u", "clf/W", "layer0/ffn/W1"):
        param = model.params[name]
        fd = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + eps
            up = model.context_loss(contexts)
            param[idx] = orig - eps
            down = model.context_loss(contexts)
            param[idx] = orig
            fd[idx] = (up - down) / (2 * eps)
        denom = max(np.linalg.norm(grads[name]), np.linalg.norm(fd), 1e-12)
        rel = np.linalg.norm(grads[name] - fd) / denom
        assert rel < 1e-6, f"{overrides}: {name} rel error {rel:.2e}"
