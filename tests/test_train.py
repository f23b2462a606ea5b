"""Training loop: determinism, null-optimizer behavior, learnability."""

import numpy as np
import pytest

from cohgraph.fusion.config import ModelConfig, TrainConfig
from cohgraph.fusion.model import DropoutStream, FusionModel
from cohgraph.fusion.optim import AdamW
from cohgraph.fusion.train import FusionClassifier, _epoch_order, train
from cohgraph.keyed import SHUFFLE, KeyedStream
from cohgraph.synth import SynthProfile, synth_generate
from cohgraph.variants import Variant

from conftest import _shares_a_shifted_run, tiny_model_config
from oracles import adamw_step


def train_corpus(n=24, seed=4):
    profile = SynthProfile(name="train-unit", n_sentences=(3, 5),
                           tokens_per_sentence=(4, 6),
                           domain_tags=("synthA",))
    return synth_generate(n, seed=seed, profile=profile)


def test_same_seed_bitwise_identical():
    """Two runs with identical seeds agree to the last bit: losses and every
    parameter tensor."""
    docs = train_corpus()
    config = tiny_model_config()
    tc = TrainConfig(epochs=3, batch_size=8, seed=5)
    model_a, metrics_a = train(docs, config, tc)
    model_b, metrics_b = train(docs, config, tc)
    assert [m.loss for m in metrics_a] == [m.loss for m in metrics_b]
    assert [m.accuracy for m in metrics_a] == [m.accuracy for m in metrics_b]
    for name in model_a.params:
        np.testing.assert_array_equal(model_a.params[name],
                                      model_b.params[name])


def test_different_seed_differs():
    docs = train_corpus()
    config = tiny_model_config()
    a, _ = train(docs, config, TrainConfig(epochs=1, batch_size=8, seed=5))
    b, _ = train(docs, config, TrainConfig(epochs=1, batch_size=8, seed=6))
    assert any(not np.array_equal(a.params[n], b.params[n]) for n in a.params)


@pytest.mark.parametrize("epoch", [0, 1, 6])
def test_neighbouring_epochs_share_no_shifted_run(epoch):
    """The raw draws behind epoch e's and e + 1's batch orders, and a
    document's dropout words at epochs e and e + 1 (and at neighbouring
    steps and documents), are not one stream shifted: the coordinates sit
    in counter words 1 to 3, and Philox advances word 0 only. A stream
    with the epoch in word 0 fails the same check."""
    seed = 5
    old = lambda e: np.random.Philox(key=seed,
                                     counter=[e, 0, 3, 0]).random_raw(40)
    assert _shares_a_shifted_run(old(epoch), old(epoch + 1))

    shuffle = KeyedStream(seed, SHUFFLE)
    assert not _shares_a_shifted_run(shuffle.at(epoch).random_raw(40),
                                     shuffle.at(epoch + 1).random_raw(40))
    for e in (epoch, epoch + 1):
        want = np.random.Generator(np.random.Philox(
            key=np.array([seed, SHUFFLE], dtype=np.uint64),
            counter=[0, e, 0, 0])).permutation(40)
        np.testing.assert_array_equal(_epoch_order(40, seed, e), want)
    assert not _shares_a_shifted_run(_epoch_order(40, seed, epoch),
                                     _epoch_order(40, seed, epoch + 1))

    stream = DropoutStream(seed)
    x = stream.at(epoch, 2).words(3, 40)
    for y in (stream.at(epoch + 1, 2).words(3, 40),
              stream.at(epoch, 3).words(3, 40),
              stream.at(epoch, 2).words(4, 40)):
        assert not _shares_a_shifted_run(x, y)


def test_zero_learning_rate_leaves_parameters_untouched():
    docs = train_corpus()
    config = tiny_model_config()
    reference = FusionModel.build(config)
    trained, _ = train(docs, config,
                       TrainConfig(epochs=2, batch_size=8, seed=5,
                                   lr=0.0, weight_decay=0.0))
    for name in reference.params:
        np.testing.assert_array_equal(reference.params[name],
                                      trained.params[name])


def test_separable_corpus_reaches_high_training_accuracy():
    """On the low-overlap profile a d_model=64 toy model fits the training
    set to at least 0.95 accuracy within 20 epochs."""
    docs = synth_generate(120, seed=3, profile="separable")
    config = ModelConfig(d_model=64, n_heads=4, n_layers=1, d_ffn=128,
                         n_token_buckets=256, n_entity_buckets=64, seed=1)
    _, metrics = train(docs, config, TrainConfig(epochs=20, seed=1))
    assert max(m.accuracy for m in metrics) >= 0.95


def test_metrics_cover_each_epoch():
    docs = train_corpus()
    _, metrics = train(docs, tiny_model_config(),
                       TrainConfig(epochs=4, batch_size=8, seed=0))
    assert [m.epoch for m in metrics] == [0, 1, 2, 3]
    for m in metrics:
        assert np.isfinite(m.loss)
        assert 0.0 <= m.accuracy <= 1.0
        assert m.wall_time_s >= 0.0


def test_empty_or_unlabeled_dataset_rejected():
    from cohgraph.fusion.model import ContractError
    with pytest.raises(ContractError):
        train([], tiny_model_config(), TrainConfig(epochs=1, seed=0))
    docs = train_corpus(3)
    from cohgraph.documents import Document
    docs[1] = Document(id="u", sentences=docs[1].sentences, label=None,
                       annotations=docs[1].annotations)
    with pytest.raises(ContractError):
        train(docs, tiny_model_config(), TrainConfig(epochs=1, seed=0))


def test_classifier_wrapper_fits_and_predicts():
    docs = train_corpus(18)
    clf = FusionClassifier(tiny_model_config(),
                           TrainConfig(epochs=2, batch_size=8, seed=0,
                                       variant=Variant.FULL))
    labels = clf.fit(docs).predict(docs[:5])
    assert len(labels) == 5
    assert len(clf.metrics) == 2


class TestAdamW:
    def test_zero_gradient_decays_only(self):
        params = {"w": np.full(3, 2.0)}
        opt = AdamW(params, lr=0.1, weight_decay=0.5)
        opt.step({"w": np.zeros(3)})
        np.testing.assert_allclose(params["w"], 2.0 * (1 - 0.1 * 0.5))

    def test_first_step_size_is_lr(self):
        """With bias correction the first Adam step is lr * sign(grad)."""
        params = {"w": np.zeros(3)}
        opt = AdamW(params, lr=0.01, weight_decay=0.0, eps=0.0)
        opt.step({"w": np.array([1.0, -2.0, 0.5])})
        np.testing.assert_allclose(params["w"], [-0.01, 0.01, -0.01])

    def test_matches_reference_implementation(self):
        """Against a literal transcription of decoupled-decay AdamW."""
        rng = np.random.default_rng(0)
        w0 = rng.normal(size=7)
        params = {"w": w0.copy()}
        lr, wd, b1, b2, eps = 0.05, 0.02, 0.9, 0.999, 1e-8
        opt = AdamW(params, lr=lr, weight_decay=wd, betas=(b1, b2), eps=eps)
        m = np.zeros(7)
        v = np.zeros(7)
        w = w0.copy()
        for t in range(1, 6):
            g = rng.normal(size=7)
            opt.step({"w": g})
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w *= 1 - lr * wd
            w -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            np.testing.assert_allclose(params["w"], w, atol=1e-15)

    def test_in_place_step_is_bit_identical_to_temporaries(self):
        """Over several steps on parameters of different shapes, the
        scratch-array step equals the step with a temporary per operation
        to the last bit: parameters and both moments."""
        rng = np.random.default_rng(3)
        shapes = {"a": (5, 4), "b": (7,), "c": (3, 2, 2), "d": (1,)}
        start = {name: rng.normal(size=shape)
                 for name, shape in shapes.items()}
        params = {name: arr.copy() for name, arr in start.items()}
        want = {name: arr.copy() for name, arr in start.items()}
        opt = AdamW(params, lr=0.03, weight_decay=0.05, betas=(0.8, 0.99),
                    eps=1e-6)
        oracle = AdamW(want, lr=0.03, weight_decay=0.05, betas=(0.8, 0.99),
                       eps=1e-6)
        for _ in range(6):
            grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
                     for name, shape in shapes.items()}
            opt.step(grads)
            adamw_step(oracle, grads)
            for name in shapes:
                np.testing.assert_array_equal(params[name], want[name])
                np.testing.assert_array_equal(opt.m[name], oracle.m[name])
                np.testing.assert_array_equal(opt.v[name], oracle.v[name])
        assert opt.t == oracle.t == 6
