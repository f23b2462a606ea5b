"""Cross-validation and cross-domain evaluation harness.

Fold assignment is a deterministic function of (sorted doc ids, k, seed):
documents are grouped by label (stratified mode), each group is shuffled by
the keyed stream of (seed, keyed.FOLDS) at its salt (its label + 1, or 0
for the one unstratified group), and a single global round-robin counter
deals documents to folds, so fold sizes differ by at most one overall and
per-label histograms deviate by at most one per class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .documents import Document
from .keyed import FOLDS, KeyedStream
from .labels import CoherenceLabel
from .metrics import EvalReport, per_label_report


class Classifier(Protocol):
    def fit(self, docs: list[Document]) -> "Classifier": ...

    def predict(self, docs: list[Document]) -> list[CoherenceLabel]: ...


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignments: dict[str, int]  # doc id -> fold index
    seed: int

    def fold_ids(self, fold: int) -> list[str]:
        return sorted(doc_id for doc_id, f in self.assignments.items() if f == fold)


def _group_shuffle(ids: list[str], seed: int, salt: int) -> list[str]:
    stream = KeyedStream(seed, FOLDS).at(salt)
    order = np.random.Generator(stream).permutation(len(ids))
    return [ids[i] for i in order]


def kfold(dataset: list[Document], k: int, seed: int,
          stratified: bool = True) -> FoldPlan:
    """Deterministic (optionally label-stratified) fold assignment."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > len(dataset):
        raise ValueError(f"k={k} exceeds dataset size {len(dataset)}")
    ids = sorted(doc.id for doc in dataset)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate document ids in dataset")

    if stratified:
        by_label: dict[int, list[str]] = {}
        labels = {doc.id: doc.label for doc in dataset}
        for doc_id in ids:
            label = labels[doc_id]
            if label is None:
                raise ValueError(f"document {doc_id!r} is unlabeled; "
                                 "stratified folding requires labels")
            by_label.setdefault(int(label), []).append(doc_id)
        groups = [_group_shuffle(by_label[label], seed, salt=label + 1)
                  for label in sorted(by_label)]
    else:
        groups = [_group_shuffle(ids, seed, salt=0)]

    assignments: dict[str, int] = {}
    counter = 0
    for group in groups:
        for doc_id in group:
            assignments[doc_id] = counter % k
            counter += 1
    return FoldPlan(k=k, assignments=assignments, seed=seed)


@dataclass(frozen=True)
class CVResult:
    fold_reports: tuple[EvalReport, ...]
    mean: dict[str, float]
    std: dict[str, float]

    def to_dict(self) -> dict:
        return {"folds": [r.to_dict() for r in self.fold_reports],
                "mean": self.mean, "std": self.std}


_SUMMARY_METRICS = ("accuracy", "macro_f1", "range")


def _summarize(reports: list[EvalReport]) -> tuple[dict[str, float], dict[str, float]]:
    mean = {}
    std = {}
    for metric in _SUMMARY_METRICS:
        values = np.array([getattr(r, metric) for r in reports], dtype=np.float64)
        mean[metric] = float(values.mean())
        # sample standard deviation, matching mean-with-std reporting
        std[metric] = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    return mean, std


def run_cv(dataset: list[Document], k: int,
           classifier_factory: Callable[[], Classifier], seed: int,
           stratified: bool = True) -> CVResult:
    """Train a fresh classifier per fold on the other k-1 folds and evaluate
    on the held-out fold; reports mean and sample std per metric."""
    for doc in dataset:
        if doc.label is None:
            raise ValueError(f"document {doc.id!r} is unlabeled")
    plan = kfold(dataset, k, seed, stratified)
    by_id = {doc.id: doc for doc in dataset}
    reports = []
    for fold in range(k):
        held_out = [by_id[i] for i in plan.fold_ids(fold)]
        train_docs = [by_id[i] for f in range(k) if f != fold
                      for i in plan.fold_ids(f)]
        model = classifier_factory().fit(train_docs)
        preds = model.predict(held_out)
        golds = [doc.label for doc in held_out]
        reports.append(per_label_report(preds, golds))
    mean, std = _summarize(reports)
    return CVResult(tuple(reports), mean, std)


@dataclass(frozen=True)
class TransferReport:
    """Per-target-domain evaluation with the delta over a TextOnly baseline."""

    test_tag: str
    report: EvalReport
    baseline: EvalReport

    @property
    def accuracy_delta(self) -> float:
        return self.report.accuracy - self.baseline.accuracy

    def to_dict(self) -> dict:
        return {"test_tag": self.test_tag,
                "report": self.report.to_dict(),
                "baseline": self.baseline.to_dict(),
                "accuracy_delta": self.accuracy_delta}


def cross_domain(dataset: list[Document], train_tag: str,
                 test_tags: list[str],
                 classifier_factory: Callable[[], Classifier],
                 baseline_factory: Callable[[], Classifier]) -> list[TransferReport]:
    """Train on one domain tag; evaluate on each requested tag separately,
    alongside a baseline classifier trained on the same documents."""
    tags = {doc.domain_tag for doc in dataset}
    for tag in [train_tag, *test_tags]:
        if tag not in tags:
            raise ValueError(f"unknown domain tag {tag!r}; corpus has {sorted(tags)}")
    train_docs = sorted((d for d in dataset if d.domain_tag == train_tag),
                        key=lambda d: d.id)
    model = classifier_factory().fit(train_docs)
    baseline = baseline_factory().fit(train_docs)
    out = []
    for tag in test_tags:
        test_docs = sorted((d for d in dataset if d.domain_tag == tag),
                           key=lambda d: d.id)
        golds = [doc.label for doc in test_docs]
        out.append(TransferReport(
            test_tag=tag,
            report=per_label_report(model.predict(test_docs), golds),
            baseline=per_label_report(baseline.predict(test_docs), golds)))
    return out
