"""Fold plans, cross-validation, and cross-domain transfer."""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pytest

from cohgraph.documents import AnnotationSet, Document, Sentence
from cohgraph.harness import cross_domain, kfold, run_cv
from cohgraph.keyed import FOLDS, KeyedStream
from cohgraph.labels import CoherenceLabel
from cohgraph.synth import SynthProfile, synth_generate

from conftest import _shares_a_shifted_run

L, M, H = CoherenceLabel.LOW, CoherenceLabel.MEDIUM, CoherenceLabel.HIGH


def tiny_corpus(n=30, seed=0):
    profile = SynthProfile(name="harness", n_sentences=(3, 4),
                           tokens_per_sentence=(3, 5),
                           domain_tags=("synthA", "synthB"))
    return synth_generate(n, seed=seed, profile=profile)


@dataclass
class ConstantClassifier:
    """Predicts one label always; fit records what it saw."""

    label: CoherenceLabel = CoherenceLabel.MEDIUM
    seen: list = field(default_factory=list)

    def fit(self, docs):
        self.seen = [d.id for d in docs]
        return self

    def predict(self, docs):
        return [self.label for _ in docs]


@dataclass
class MajorityClassifier:
    """Predicts the training majority label."""

    label: CoherenceLabel = CoherenceLabel.LOW

    def fit(self, docs):
        counts = Counter(int(d.label) for d in docs)
        self.label = CoherenceLabel(counts.most_common(1)[0][0])
        return self

    def predict(self, docs):
        return [self.label for _ in docs]


class TestKFold:
    def test_fold_sizes_balanced(self):
        plan = kfold(tiny_corpus(10), k=5, seed=3)
        sizes = Counter(plan.assignments.values())
        assert sorted(sizes.values()) == [2, 2, 2, 2, 2]

    def test_deterministic(self):
        docs = tiny_corpus(23)
        assert kfold(docs, 4, seed=9).assignments == \
               kfold(docs, 4, seed=9).assignments
        assert kfold(docs, 4, seed=9).assignments != \
               kfold(docs, 4, seed=10).assignments

    def test_order_insensitive(self):
        """Assignment is a function of sorted ids, not list order."""
        docs = tiny_corpus(12)
        shuffled = list(reversed(docs))
        assert kfold(docs, 3, seed=1).assignments == \
               kfold(shuffled, 3, seed=1).assignments

    def test_stratification_deviation_at_most_one(self):
        docs = tiny_corpus(31)
        k = 4
        plan = kfold(docs, k, seed=5)
        labels = {d.id: int(d.label) for d in docs}
        global_counts = Counter(labels.values())
        for fold in range(k):
            fold_counts = Counter(labels[i] for i in plan.fold_ids(fold))
            for label, total in global_counts.items():
                lo, hi = total // k, -(-total // k)
                assert lo <= fold_counts.get(label, 0) <= hi

    def test_label_groups_share_no_shifted_run(self, generator_streams):
        """The label groups' fold shuffles draw from the keyed stream of
        (seed, FOLDS) at salts 1, 2 and 3, so no two groups draw one
        stream shifted."""
        docs = tiny_corpus(30)
        made = len(generator_streams)
        kfold(docs, k=3, seed=5)
        groups = generator_streams[made:]
        assert len(groups) == 3
        for salt, words in enumerate(groups, start=1):
            np.testing.assert_array_equal(
                words, KeyedStream(5, FOLDS).at(salt).random_raw(40))
        for a, b in ((0, 1), (1, 2), (0, 2)):
            assert not _shares_a_shifted_run(groups[a], groups[b])

    def test_size_bounds(self):
        docs = tiny_corpus(5)
        with pytest.raises(ValueError):
            kfold(docs, 1, seed=0)
        with pytest.raises(ValueError):
            kfold(docs, 6, seed=0)

    def test_plain_mode_needs_no_labels(self):
        docs = [Document(id=f"u{i}",
                         sentences=(Sentence(1, "a", ("a",)),),
                         annotations=AnnotationSet()).validate()
                for i in range(6)]
        plan = kfold(docs, 3, seed=0, stratified=False)
        assert sorted(Counter(plan.assignments.values()).values()) == [2, 2, 2]


class TestRunCV:
    def test_constant_model_mean_matches_analytic_value(self):
        """A constant predictor's fold accuracy is the held-out fraction of
        its label; the harness mean must equal the analytic average."""
        docs = tiny_corpus(30)
        k = 5
        plan = kfold(docs, k, seed=7)
        labels = {d.id: d.label for d in docs}
        fold_accs = []
        for fold in range(k):
            ids = plan.fold_ids(fold)
            fold_accs.append(
                sum(labels[i] == CoherenceLabel.MEDIUM for i in ids) / len(ids))
        result = run_cv(docs, k, ConstantClassifier, seed=7)
        assert result.mean["accuracy"] == pytest.approx(np.mean(fold_accs))
        assert result.std["accuracy"] == pytest.approx(np.std(fold_accs, ddof=1))

    def test_each_fold_trains_on_the_complement(self):
        docs = tiny_corpus(12)
        seen_sizes = []

        class Recorder(ConstantClassifier):
            def fit(self, train_docs):
                seen_sizes.append(len(train_docs))
                return super().fit(train_docs)

        run_cv(docs, 4, Recorder, seed=0)
        assert seen_sizes == [9, 9, 9, 9]

    def test_duplicated_dataset_gives_zero_std(self):
        """Two folds with identical content by construction: std is 0."""
        base = tiny_corpus(8)
        mirrored = []
        for suffix, docs in (("a", base), ("b", base)):
            for d in docs:
                mirrored.append(Document(
                    id=f"{d.id}-{suffix}", sentences=d.sentences,
                    label=d.label, domain_tag=d.domain_tag,
                    annotations=d.annotations))
        result = run_cv(mirrored, 2, MajorityClassifier, seed=0)
        assert result.std["accuracy"] == pytest.approx(0.0, abs=1e-12)

    def test_unlabeled_dataset_rejected(self):
        docs = tiny_corpus(6)
        docs[0] = Document(id="x", sentences=docs[0].sentences, label=None,
                           annotations=docs[0].annotations)
        with pytest.raises(ValueError):
            run_cv(docs, 2, ConstantClassifier, seed=0)

    def test_reproducible(self):
        docs = tiny_corpus(20)
        a = run_cv(docs, 4, MajorityClassifier, seed=3)
        b = run_cv(docs, 4, MajorityClassifier, seed=3)
        assert a == b


class TestCrossDomain:
    def test_unknown_tag_rejected(self):
        docs = tiny_corpus(12)
        with pytest.raises(ValueError) as err:
            cross_domain(docs, "nope", ["synthB"], ConstantClassifier,
                         ConstantClassifier)
        assert "nope" in str(err.value)

    def test_train_equals_test_is_in_domain_eval(self):
        docs = tiny_corpus(24)
        (report,) = cross_domain(docs, "synthA", ["synthA"],
                                 MajorityClassifier, ConstantClassifier)
        in_domain = [d for d in docs if d.domain_tag == "synthA"]
        model = MajorityClassifier().fit(sorted(in_domain, key=lambda d: d.id))
        expected = sum(model.label == d.label for d in in_domain) / len(in_domain)
        assert report.report.accuracy == pytest.approx(expected)

    def test_reports_baseline_and_delta(self):
        docs = tiny_corpus(24)
        reports = cross_domain(docs, "synthA", ["synthB"],
                               MajorityClassifier, ConstantClassifier)
        assert len(reports) == 1
        r = reports[0]
        assert r.test_tag == "synthB"
        assert r.accuracy_delta == pytest.approx(
            r.report.accuracy - r.baseline.accuracy)

    def test_degenerate_label_support_is_flagged_not_fatal(self):
        """Disjoint label supports across domains produce flags, not errors."""
        def doc(i, label, tag):
            return Document(
                id=f"d{i}", sentences=(Sentence(1, "a b", ("a", "b")),),
                label=label, domain_tag=tag,
                annotations=AnnotationSet()).validate()

        docs = [doc(i, L, "train") for i in range(4)]
        docs += [doc(10 + i, H, "test") for i in range(4)]
        (report,) = cross_domain(docs, "train", ["test"],
                                 MajorityClassifier, ConstantClassifier)
        # medium appears in neither golds nor predictions on the test tag
        assert M in report.report.degenerate_classes
        assert report.report.accuracy == 0.0


def test_cross_domain_graph_signal_transfers_better_than_text():
    """Two synthetic domains share the coherence-signal generator but not
    vocabulary, so the joint model transfers while TextOnly cannot."""
    from cohgraph.fusion.config import ModelConfig, TrainConfig
    from cohgraph.fusion.train import FusionClassifier
    from cohgraph.variants import Variant

    docs = synth_generate(240, seed=17)
    model_config = ModelConfig(d_model=32, n_heads=2, n_layers=2, d_ffn=64,
                               n_token_buckets=512, n_entity_buckets=128,
                               seed=0)
    def factory(variant):
        tc = TrainConfig(epochs=12, seed=0, batch_size=32, variant=variant)
        return lambda: FusionClassifier(model_config, tc)

    (transfer,) = cross_domain(docs, "synthA", ["synthB"],
                               factory(Variant.FULL),
                               factory(Variant.TEXT_ONLY))
    assert transfer.report.accuracy > transfer.baseline.accuracy
    assert transfer.accuracy_delta > 0.10
