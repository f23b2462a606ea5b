"""The traced benchmark run wraps model and library callables by attribute
name and calls forward_context on one context; a rename or a signature change
there would otherwise surface only in the benchmark's own tests."""

import importlib.util
import sys
from pathlib import Path

import pytest

from cohgraph.fusion.config import TrainConfig
from cohgraph.fusion.model import N_CLASSES, FusionModel
from cohgraph.fusion.train import train

from conftest import make_demo_document, tiny_model_config

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_traced_attribute_exists_on_its_owner(tracing):
    for point in tracing.SPANS:
        assert point.attribute in point.owner.__dict__, (
            f"{point.name}: {point.owner!r} has no {point.attribute}")


def test_forward_context_takes_a_single_context(tracing):
    model = FusionModel.build(tiny_model_config())
    ctx = model.prepare(make_demo_document())
    logits, pooled, _ = model.forward_context(ctx)
    assert logits.shape == (N_CLASSES,)
    assert pooled.shape == (model.config.d_model,)
    peaks = tracing.forward_peak_mib(model, [ctx])
    assert peaks["n_le_32"] > 0.0


@pytest.mark.parametrize("call", ["train", "predict", "forward"])
def test_entry_points_prepare_through_the_class_attribute(call, monkeypatch):
    """The bench's model.prepare span wraps FusionModel.prepare; train,
    predict and forward must all look it up there, or the span stops
    counting their preparation."""
    calls = []
    prepare = FusionModel.prepare

    def counted(self, doc, *args):
        calls.append(doc.id)
        return prepare(self, doc, *args)

    monkeypatch.setattr(FusionModel, "prepare", counted)
    docs = [make_demo_document()]
    if call == "train":
        train(docs, tiny_model_config(), TrainConfig(epochs=1))
    else:
        model = FusionModel.build(tiny_model_config())
        if call == "predict":
            model.predict(docs)
        else:
            model.forward(docs[0])
    assert calls == [docs[0].id]
