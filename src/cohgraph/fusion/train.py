"""Deterministic training loop: keyed shuffles, counter-based dropout,
sequential gradient reduction, AdamW updates in sorted parameter order.

Two runs with identical data and seeds produce bit-identical parameters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..documents import Document
from ..keyed import SHUFFLE, KeyedStream
from ..labels import CoherenceLabel
from .config import ModelConfig, TrainConfig
from .model import ContractError, DropoutStream, FusionModel, NumericalError
from .optim import AdamW


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, step: int, detail: str):
        self.epoch = epoch
        self.step = step
        super().__init__(f"training diverged at epoch {epoch}, step {step}: {detail}")


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    loss: float
    accuracy: float
    wall_time_s: float

    def to_dict(self) -> dict:
        return {"epoch": self.epoch, "loss": self.loss,
                "accuracy": self.accuracy, "wall_time_s": self.wall_time_s}


def _epoch_order(n: int, seed: int, epoch: int) -> np.ndarray:
    """The epoch's batch order: a permutation drawn from the Philox stream
    keyed by (seed, keyed.SHUFFLE) at the epoch."""
    stream = KeyedStream(seed, SHUFFLE).at(epoch)
    return np.random.Generator(stream).permutation(n)


def train(dataset: list[Document], model_config: ModelConfig,
          train_config: TrainConfig) -> tuple[FusionModel, list[EpochMetrics]]:
    """Train a fresh model; returns it with per-epoch loss/accuracy metrics.

    Loss and accuracy are measured on the training passes themselves (with
    dropout active), the usual running-train-metrics convention.
    """
    if not dataset:
        raise ContractError("empty training dataset")
    for doc in dataset:
        if doc.label is None:
            raise ContractError(f"document {doc.id!r} is unlabeled")

    model = FusionModel.build(model_config, train_config.variant)
    optimizer = AdamW(model.params, lr=train_config.lr,
                      weight_decay=train_config.weight_decay,
                      betas=train_config.betas, eps=train_config.eps)
    # graph/mask/position structure is parameter-independent: build it once
    contexts = [model.prepare(doc, train_config.variant) for doc in dataset]

    metrics: list[EpochMetrics] = []
    for epoch in range(train_config.epochs):
        started = time.perf_counter()
        order = _epoch_order(len(dataset), train_config.seed, epoch)
        loss_sum = 0.0
        correct = 0
        for step in range(0, len(order), train_config.batch_size):
            batch = [contexts[i] for i in order[step:step + train_config.batch_size]]
            stream = DropoutStream(train_config.seed, epoch,
                                   step // train_config.batch_size)
            predictions: list[int] = []
            try:
                loss, grads = model.loss_and_grad_contexts(
                    batch, dropout=stream, out_predictions=predictions)
            except NumericalError as exc:
                raise TrainingDivergedError(
                    epoch, step // train_config.batch_size, str(exc)) from exc
            optimizer.step(grads)
            loss_sum += loss * len(batch)
            correct += sum(int(pred == ctx.label)
                           for pred, ctx in zip(predictions, batch))
        for name, arr in model.params.items():
            if not np.isfinite(arr).all():
                raise TrainingDivergedError(
                    epoch, -1, f"non-finite parameter {name}")
        metrics.append(EpochMetrics(
            epoch=epoch,
            loss=loss_sum / len(dataset),
            accuracy=correct / len(dataset),
            wall_time_s=time.perf_counter() - started))
    return model, metrics


@dataclass
class FusionClassifier:
    """fit/predict wrapper used by the cross-validation harness."""

    model_config: ModelConfig
    train_config: TrainConfig
    model: FusionModel | None = None
    metrics: list[EpochMetrics] = field(default_factory=list)

    def fit(self, docs: list[Document]) -> "FusionClassifier":
        self.model, self.metrics = train(docs, self.model_config, self.train_config)
        return self

    def predict(self, docs: list[Document]) -> list[CoherenceLabel]:
        """Predicted labels. Each document's context is prepared through
        the model's kept contexts, so a later fit on the same documents,
        such as the next cross-validation fold, does not prepare it again."""
        assert self.model is not None, "fit before predict"
        variant = self.train_config.variant
        for doc in docs:
            self.model.prepare(doc, variant)
        return [CoherenceLabel(i) for i in
                self.model.predict(docs, variant=variant)]
