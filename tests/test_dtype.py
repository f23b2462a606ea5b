"""float32, the default compute dtype, against float64.

Both run one code path. A float32 model starts from the rounded initial
parameters of the float64 one and draws the same dropout masks, so the two
are compared with pinned tolerances: the worst gaps measured were 2.6e-7
(d32) and 1.5e-7 (d256) relative on logits, 9.7e-7 and 1.1e-6 on a
parameter's gradient, and 1.1e-7 on a per-epoch fit loss. A float32 pass
creates no float64 array that outlives it, and training stays
bit-reproducible per seed.
"""

import tracemalloc
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from cohgraph.fusion.config import ModelConfig, TrainConfig
from cohgraph.fusion.model import DropoutStream, FusionModel
from cohgraph.fusion.optim import AdamW
from cohgraph.fusion.train import train
from cohgraph.synth import SynthProfile, synth_generate

from conftest import tiny_model_config

LOGIT_RTOL = 2e-6
GRAD_RTOL = 1e-5
FIT_LOSS_ATOL = 1e-6

D32 = dict(d_model=32, n_heads=2, n_layers=2, d_ffn=64, n_token_buckets=512,
           n_entity_buckets=128, seed=0)


def long_docs():
    """Two documents of 57 and 61 elements: every sentence pair carries an
    implicit and an explicit relation and a coreference link."""
    profile = SynthProfile(name="long", n_sentences=(13, 16),
                           explicit_prob=1.0, medium_entity_prob=1.0)
    return synth_generate(3, seed=4, profile=profile)[1:]


def float64_twin(model: FusionModel) -> FusionModel:
    """A float64 model holding the float32 model's parameters exactly."""
    config = replace(model.config, dtype="float64")
    return FusionModel(config, {name: arr.astype(np.float64)
                                for name, arr in model.params.items()},
                       FusionModel._encoder(config), model.variant)


def test_float32_is_the_default_and_float64_stays_available():
    assert ModelConfig().dtype == "float32"
    assert FusionModel.build(tiny_model_config()).dtype == np.float64
    model = FusionModel.build(ModelConfig(**D32))
    assert {arr.dtype for arr in model.params.values()} == {np.dtype("float32")}
    reference = FusionModel.build(ModelConfig(**D32, dtype="float64"))
    for name, arr in reference.params.items():
        np.testing.assert_array_equal(model.params[name],
                                      arr.astype(np.float32))


def test_building_the_default_model_holds_one_float64_draw_at_a_time():
    """Each initial tensor is cast to float32 as it is drawn, so building
    the default model peaks under 1.5 times its parameter bytes (2.8 when
    every draw was held in float64 and cast at the end)."""
    tracemalloc.start()
    try:
        model = FusionModel.build(ModelConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * sum(arr.nbytes for arr in model.params.values())


@pytest.mark.parametrize("config, docs", [
    (ModelConfig(**D32), lambda: synth_generate(12, 11, "balanced")),
    (ModelConfig(), long_docs),
], ids=["d32", "d256"])
def test_float32_logits_and_gradients_match_float64(config, docs):
    model = FusionModel.build(config)
    twin = float64_twin(model)
    docs = docs()
    contexts = [model.prepare(doc) for doc in docs]
    twin_contexts = [twin.prepare(doc) for doc in docs]

    logits = model.forward_context(contexts)[0]
    want = twin.forward_context(twin_contexts)[0]
    assert logits.dtype == np.float32
    assert np.abs(logits - want).max() <= LOGIT_RTOL * np.abs(want).max()

    stream = DropoutStream(3).at(1, 2)
    loss, grads = model.loss_and_grad_contexts(contexts, dropout=stream)
    want_loss, want_grads = twin.loss_and_grad_contexts(twin_contexts,
                                                        dropout=stream)
    assert isinstance(loss, float)
    assert loss == pytest.approx(want_loss, rel=LOGIT_RTOL)
    for name, want_grad in want_grads.items():
        assert grads[name].dtype == np.float32
        gap = np.linalg.norm(grads[name] - want_grad)
        assert gap <= GRAD_RTOL * np.linalg.norm(want_grad), name


def test_a_short_fit_and_its_predictions_match_float64():
    docs = synth_generate(90, 11, "balanced")
    config = ModelConfig(**D32)
    train_config = TrainConfig(epochs=4, seed=0, batch_size=16)
    model, metrics = train(docs[:60], config, train_config)
    twin, twin_metrics = train(docs[:60], replace(config, dtype="float64"),
                               train_config)
    for got, want in zip(metrics, twin_metrics):
        assert isinstance(got.loss, float)
        assert abs(got.loss - want.loss) <= FIT_LOSS_ATOL
        assert got.accuracy == want.accuracy
    assert model.predict(docs[60:]) == twin.predict(docs[60:])


def _float_arrays(obj):
    """Every floating-point array reachable from a forward cache."""
    if isinstance(obj, np.ndarray):
        return [obj] if obj.dtype.kind == "f" else []
    if isinstance(obj, dict):
        obj = list(obj.values())
    elif is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in fields(obj)]
    if isinstance(obj, (list, tuple)):
        return [arr for item in obj for arr in _float_arrays(item)]
    return []


def test_no_float64_array_in_a_float32_pass():
    """Every parameter, gradient, cached activation and mask of a float32
    forward and backward pass with dropout, and the optimizer state after
    a step, is float32."""
    model = FusionModel.build(ModelConfig(**D32))
    contexts = [model.prepare(doc) for doc in synth_generate(6, 2, "balanced")]
    logits, pooled, cache = model.forward_context(
        contexts, train_mode=True, dropout=DropoutStream(1))
    cached = _float_arrays(cache)
    assert len(cached) > 20
    grads = model.zero_grads()
    model.backward_from_logits(np.ones_like(logits), cache, grads)
    optimizer = AdamW(model.params)
    optimizer.step(grads)
    arrays = ([logits, pooled, model.position_table] + cached
              + list(model.params.values()) + list(grads.values())
              + list(optimizer.m.values()) + list(optimizer.v.values()))
    assert {arr.dtype for arr in arrays} == {np.dtype("float32")}


def test_float32_training_is_bit_reproducible():
    docs = synth_generate(24, 3, "balanced")
    train_config = TrainConfig(epochs=2, batch_size=8, seed=5)
    (a, metrics_a), (b, metrics_b) = (
        train(docs, ModelConfig(**D32), train_config) for _ in range(2))
    assert [m.loss for m in metrics_a] == [m.loss for m in metrics_b]
    for name, arr in a.params.items():
        assert arr.dtype == np.float32
        np.testing.assert_array_equal(arr, b.params[name])
