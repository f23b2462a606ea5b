"""Fusion model: encoder, layers, forward properties, gradients, checkpoints."""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from cohgraph.cli import main as cli_main
from cohgraph.documents import (AnnotationSet, Document, Sentence)
from cohgraph.flat import FlatSequence
from cohgraph.fusion.config import ModelConfig
from cohgraph.fusion.encoder import HashBucketSentenceEncoder, stable_bucket
from cohgraph.fusion.model import (ContractError, DropoutStream, FusionModel,
                                   NumericalError, _rectify, _rectify_grad,
                                   expected_param_shapes, layer_norm_forward)
from cohgraph.labels import CoherenceLabel
from cohgraph.synth import SynthProfile, synth_generate
from cohgraph.variants import Variant

from conftest import make_demo_document, tiny_model_config
from oracles import head_slice


def small_docs(n=3, seed=2, n_sentences=(3, 4)):
    profile = SynthProfile(name="unit", n_sentences=n_sentences,
                           tokens_per_sentence=(4, 6),
                           domain_tags=("synthA",))
    return synth_generate(n, seed=seed, profile=profile)


def encode(enc, tokens, params):
    return enc.encode_prepared([enc.prepare(tokens)], params)[0]


class TestSentenceEncoder:
    def _encoder(self, trainable=True):
        enc = HashBucketSentenceEncoder(8, 16, trainable=trainable)
        params = enc.init_params(np.random.default_rng(0))
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

    def test_frozen_encoder_contributes_no_params(self):
        enc, params = self._encoder(trainable=False)
        assert params == {}
        assert encode(enc, ("x",), {}).shape == (8,)


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
        np.testing.assert_allclose(_rectify(self.Z, "softplus"),
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
            _rectify_grad(_rectify(z, "softplus"), "softplus"), sigmoid,
            rtol=1e-15, atol=1e-300)

    def test_relu_and_its_derivative(self):
        z = self.Z
        np.testing.assert_array_equal(_rectify(z, "relu"), np.maximum(z, 0.0))
        np.testing.assert_array_equal(_rectify_grad(_rectify(z, "relu"), "relu"),
                                      z > 0.0)


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


class TestDropoutStream:
    def test_same_coordinates_same_mask(self):
        stream = DropoutStream(seed=3, rate=0.5, epoch=2, step=4)
        a = stream.mask(1, 0, (5, 6))
        b = stream.mask(1, 0, (5, 6))
        np.testing.assert_array_equal(a, b)

    def test_distinct_coordinates_differ(self):
        stream = DropoutStream(seed=3, rate=0.5, epoch=2, step=4)
        a = stream.mask(1, 0, (5, 6))
        assert not np.array_equal(a, stream.mask(2, 0, (5, 6)))
        assert not np.array_equal(a, stream.mask(1, 1, (5, 6)))
        assert not np.array_equal(a, stream.at(3, 4).mask(1, 0, (5, 6)))

    @pytest.mark.parametrize("seed, coords, shape", [
        (0, (0, 0, 0, 0), (19, 32)),
        (3, (2, 4, 1, 3), (5, 6)),
        (12345, (7, 0, 31, 1), (140, 16)),
        (2 ** 40 + 5, (1, 9, 2, 0), (1, 1)),
    ])
    def test_draws_are_a_fresh_philox_stream_per_coordinate(self, seed,
                                                            coords, shape):
        """draw is the stream of a Philox generator keyed by the seed and
        countered by (epoch, step, doc_index, slot), whatever was drawn
        before."""
        epoch, step, doc_index, slot = coords
        stream = DropoutStream(seed, 0.5, epoch, step)
        stream.draw(doc_index + 1, slot, np.empty((3, 4)))
        got = np.empty(shape)
        stream.draw(doc_index, slot, got)
        want = np.random.Generator(np.random.Philox(
            key=seed, counter=[epoch, step, doc_index, slot])).random(shape)
        np.testing.assert_array_equal(got, want)

    def test_inverted_scaling(self):
        stream = DropoutStream(seed=0, rate=0.25)
        mask = stream.mask(0, 0, (100, 100))
        assert set(np.unique(mask)) <= {0.0, 1.0 / 0.75}

    def test_train_forward_uses_dropout(self):
        model = FusionModel.build(tiny_model_config(dropout_rate=0.5))
        ctx = model.prepare(small_docs(1)[0])
        eval_logits, _, _ = model.forward_context(ctx)
        train_logits, _, _ = model.forward_context(
            ctx, train_mode=True, dropout=DropoutStream(9, 0.5))
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


def _duplicate_first_tensor(header, body):
    first = header["tensors"][0]
    header["tensors"].append(first)
    return header, body + body[:8 * int(np.prod(first["shape"]))]


# (case, edit of (header, tensor bytes), text the error must contain)
MALFORMED_CHECKPOINTS = [
    ("config-missing", _without("config"), "config"),
    ("config-unknown-field", _with_config(bogus=1), "bogus"),
    ("config-invalid-value", _with_config(d_model=0), "dimensions"),
    ("tensors-missing", _without("tensors"), "tensors"),
    ("tensors-not-a-list", lambda h, b: ({**h, "tensors": 5}, b), "malformed"),
    ("variant-missing", _without("variant"), "variant"),
    ("variant-unknown", lambda h, b: ({**h, "variant": "Bogus"}, b),
     "'Bogus' is not a valid Variant"),
    ("header-not-an-object", lambda h, b: ([h], b), "not a JSON object"),
    ("header-not-json", lambda h, b: (b"{", b), "unreadable header"),
    ("header-not-utf8", lambda h, b: (b"\xff", b), "unreadable header"),
    ("tensor-truncated", lambda h, b: (h, b[:-4]),
     "tensor pos/W_p is truncated"),
    ("tensor-duplicated", _duplicate_first_tensor, "duplicate tensor clf/W"),
    ("trailing-bytes", lambda h, b: (h, b + b"\0"), "trailing bytes"),
]


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
    head's block of a layer's head tensors as a tensor of its own
    (layer0/head{h}/W_q, ..., layer0/head{h}/v) and records no variant.
    It was written by `cohgraph train` at the last commit that wrote format
    1, in tests/fixtures:

        cohgraph synth corpus.jsonl --n-docs 12 --seed 5
        cohgraph train corpus.jsonl v1-d8.ckpt --config v1-d8.config.json \
            --seed 7
    """

    def test_loads_the_heads_stacked_bit_exactly(self):
        raw = _raw_tensors(V1_CHECKPOINT.read_bytes())
        model = FusionModel.load(V1_CHECKPOINT)
        assert model.variant is None
        heads = [head_slice(model.layer_heads(0), h)
                 for h in range(model.config.n_heads)]
        assert len(raw) == len(model.params) + 6 * (len(heads) - 1)
        for name, arr in raw.items():
            layer, _, field = name.rpartition("/")
            if layer.startswith("layer0/head"):
                got = getattr(heads[int(layer[len("layer0/head"):])], field)
            else:
                got = model.params[name]
            np.testing.assert_array_equal(got, arr)

    def test_a_shared_uv_model_in_format1_layout_loads_as_itself(
            self, tmp_path):
        """A share_uv model's parameters written in format 1's per-head
        layout, where the shared u, v stayed one tensor per layer, load
        back bit for bit."""
        model = FusionModel.build(tiny_model_config(n_layers=2,
                                                    share_uv=True))
        fields = ("W_q", "W_k", "W_r", "W_v")
        params = dict(model.params)
        for l in range(model.config.n_layers):
            for field in fields:
                del params[f"layer{l}/{field}"]
            for h in range(model.config.n_heads):
                head = head_slice(model.layer_heads(l), h)
                for field in fields:
                    params[f"layer{l}/head{h}/{field}"] = getattr(head, field)
        names = sorted(params)
        header = {"format_version": 1, "config": model.config.to_dict(),
                  "tensors": [{"name": name, "shape": list(params[name].shape),
                               "dtype": "float64"} for name in names]}
        path = tmp_path / "v1.ckpt"
        path.write_bytes(join_checkpoint(header, b"".join(
            params[name].astype("<f8").tobytes() for name in names)))
        loaded = FusionModel.load(path)
        assert loaded.variant is None
        assert loaded.params.keys() == model.params.keys()
        for name, arr in model.params.items():
            np.testing.assert_array_equal(loaded.params[name], arr)

    def test_retraining_matches_the_fixture(self, tmp_path):
        """The fixture's commands rerun here give its parameters within
        1e-12 relative: bits across BLAS builds are not promised."""
        runner = CliRunner()
        corpus, path = tmp_path / "corpus.jsonl", tmp_path / "v2.ckpt"
        for args in (["synth", str(corpus), "--n-docs", "12", "--seed", "5"],
                     ["train", str(corpus), str(path), "--config",
                      str(FIXTURES / "v1-d8.config.json"), "--seed", "7"]):
            result = runner.invoke(cli_main, args)
            assert result.exit_code == 0, result.output
        want, got = FusionModel.load(V1_CHECKPOINT), FusionModel.load(path)
        assert got.config == want.config
        assert got.variant is Variant.FULL
        for name, arr in want.params.items():
            np.testing.assert_allclose(got.params[name], arr, rtol=0,
                                       atol=1e-12 * np.abs(arr).max())

    @pytest.mark.parametrize("edit", ["dropped", "resized"])
    def test_bad_head_tensor_is_contract_error(self, tmp_path, edit):
        header, body = split_checkpoint(V1_CHECKPOINT.read_bytes())
        names = [t["name"] for t in header["tensors"]]
        i = names.index("layer0/head1/W_k")
        sizes = [8 * int(np.prod(t["shape"])) for t in header["tensors"]]
        start = sum(sizes[:i])
        if edit == "dropped":
            del header["tensors"][i]
            body = body[:start] + body[start + sizes[i]:]
            expect = "missing tensors ['layer0/head1/W_k']"
        else:
            header["tensors"][i]["shape"] = [8, 3]
            expect = "tensor layer0/head1/W_k shape (8, 3) does not match"
        path = tmp_path / "v1.ckpt"
        path.write_bytes(join_checkpoint(header, body))
        with pytest.raises(ContractError) as err:
            FusionModel.load(path)
        assert str(path) in str(err.value)
        assert expect in str(err.value)


def test_param_count_is_config_deterministic():
    """One tensor per head field and layer, the heads stacked in it."""
    config = tiny_model_config()
    shapes_a = expected_param_shapes(config)
    shapes_b = expected_param_shapes(tiny_model_config())
    assert shapes_a == shapes_b
    assert len(expected_param_shapes(ModelConfig())) == 38
    assert shapes_a["layer0/W_q"] == (config.d_model, config.d_model)
    assert shapes_a["layer0/u"] == (config.n_heads, config.d_head)
    shared = expected_param_shapes(tiny_model_config(share_uv=True))
    assert shared["layer0/u"] == shared["layer0/v"] == (config.d_head,)
    assert not any("/head" in name for name in shapes_a | shared)


def test_share_uv_flag_trains_and_runs():
    model = FusionModel.build(tiny_model_config(share_uv=True))
    doc = small_docs(1)[0]
    logits, _ = model.forward(doc)
    assert np.isfinite(logits).all()
    loss, grads = model.loss_and_grad_contexts(
        [model.prepare(doc) for doc in small_docs(2)])
    assert np.isfinite(loss)
    assert grads["layer0/u"].shape == (model.config.d_head,)


@pytest.mark.parametrize("overrides", [
    {"share_uv": True},
    {"position_activation": "relu"},
    {"pooling": "first_sentence"},
    {"ffn_activation": "relu"},
    {"scale_scores": False},
])
def test_gradcheck_covers_config_branches(overrides):
    """Finite-difference spot check on a few tensors for each config switch.

    The relu variants are checked at a smaller epsilon to stay clear of
    kink-crossing noise in the oracle itself.
    """
    config = tiny_model_config(d_model=16, n_heads=2, d_ffn=24,
                               n_token_buckets=8, n_entity_buckets=4,
                               **overrides)
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
