"""The benchmark's workloads: inputs made from a seed, timed calls, checks.

Every workload is closed-loop: one caller that waits for each result, as the
command line uses the library. A workload times two kinds of calls:

* batch rounds, which give `docs_per_s` (documents through the round per
  second of its wall time), and
* single-document calls, which give `doc_ms_p50` and `doc_ms_p90`.

Outputs are checked after each timed call, outside the timed region, and
every operation that raises or fails its check counts as failed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from cohgraph import corpus, graph, harness, prompts, synth
from cohgraph.fusion import model as fusion_model
from cohgraph.fusion.config import ModelConfig, TrainConfig
from cohgraph.labels import CoherenceLabel
from cohgraph.variants import FUSION_VARIANTS, Variant

# cohgraph.fusion re-exports the train() function under the submodule's name
fusion_train = importlib.import_module("cohgraph.fusion.train")

# The byte-exact closing lines of every prompt (see tests/golden).
PROMPT_QUERY = ("Question: Is the coherence of this document low, medium, "
                "or high?\nAnswer with exactly one word: low, medium, or high.\n")
PROMPT_EXPLANATION = "Then provide a brief explanation for your judgment.\n"

VALID_LABELS = frozenset(int(label) for label in CoherenceLabel)


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def raised(self, what: str, count: int = 1) -> None:
        """count operations that did not complete because a call raised."""
        self.attempted += count
        self.failed += count
        print(f"operation raised: {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def _finite_losses(metrics) -> bool:
    return bool(metrics) and all(np.isfinite(m.loss) for m in metrics)


def _logits_agree(model, doc, variant: Variant, pred: int) -> bool:
    """Logits of doc are finite and their argmax is the prediction."""
    logits, _ = model.forward(doc, variant=variant)
    return bool(np.isfinite(logits).all()) and int(np.argmax(logits)) == pred


class Workload:
    """Base: set-up, warm-up, batch rounds and single-document calls."""

    name = ""
    # iterations of the measuring loop in one unit of a traced run
    trace_rounds = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.corpus_path = work_dir / f"{self.name}-{seed}.jsonl"
        self.train_s = 0.0
        self.train_docs = 0
        self.eval_s = 0.0
        self.eval_docs = 0
        # context in which output checks run; a traced run pauses its tracer
        self.unobserved = contextlib.nullcontext

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def batch_round(self, tally: Tally) -> tuple[int, float, list[float]]:
        """(documents, seconds, per-document latencies in ms) of one round."""
        raise NotImplementedError

    def single_calls(self, tally: Tally) -> list[float]:
        """Latencies in ms of one chunk of single-document calls."""
        return []

    def probe(self):
        """(model, contexts) for the forward-pass memory probe, or None."""
        return None

    def unit(self, tally: Tally) -> float:
        """The fixed work of a traced run; returns the seconds its timed
        calls took, which leaves out the output checks."""
        seconds = 0.0
        for _ in range(self.trace_rounds):
            _, elapsed, _ = self.batch_round(tally)
            seconds += elapsed + sum(self.single_calls(tally)) / 1e3
        return seconds

    def breakdown(self) -> list[tuple[str, float, str]]:
        """Stage rates that docs_per_s combines; printed, not gated."""
        out = []
        if self.train_s:
            out.append(("train_docs_per_s", self.train_docs / self.train_s,
                        "docs/s"))
        if self.eval_s:
            out.append(("eval_docs_per_s", self.eval_docs / self.eval_s,
                        "docs/s"))
        return out

    def _write_and_parse(self, docs) -> list:
        corpus.write_corpus(docs, self.corpus_path)
        return corpus.read_corpus(self.corpus_path)


class _RecordingClassifier:
    """FusionClassifier that times its fit and predict calls and keeps what
    they produced, so run_cv's outputs can be checked afterwards."""

    def __init__(self, owner: "ShortCV", model_config: ModelConfig,
                 train_config: TrainConfig):
        self.owner = owner
        self.inner = fusion_train.FusionClassifier(model_config, train_config)

    def fit(self, docs):
        started = time.perf_counter()
        self.inner.fit(docs)
        self.owner.train_s += time.perf_counter() - started
        self.owner.train_docs += len(docs) * self.inner.train_config.epochs
        self.owner.fitted.append(self.inner)
        return self

    def predict(self, docs):
        started = time.perf_counter()
        preds = self.inner.predict(docs)
        self.owner.eval_s += time.perf_counter() - started
        self.owner.eval_docs += len(docs)
        self.owner.predicted.append((self.inner, docs, preds))
        return preds


class ShortCV(Workload):
    """C7's shape, scaled down: stratified run_cv over the four fusion
    variants at d_model=32 on the balanced corpus."""

    name = "short-cv"
    n_docs = 90
    folds = 3
    epochs = 2
    # single-document calls after each variant's run_cv, which spreads the
    # latency samples over the whole round
    chunk = 30
    model_config = ModelConfig(d_model=32, n_heads=2, n_layers=2, d_ffn=64,
                               n_token_buckets=512, n_entity_buckets=128,
                               seed=0)

    def setup(self) -> None:
        self.docs = self._write_and_parse(
            synth.synth_generate(self.n_docs, self.seed, "balanced"))
        self.model = fusion_model.FusionModel.build(self.model_config)

    def warmup(self) -> None:
        """Warm the predict path and fit the model that the single-document
        calls use."""
        self.model.predict(self.docs[:4])
        classifier = fusion_train.FusionClassifier(
            self.model_config, TrainConfig(epochs=self.epochs, seed=0))
        self.latency_model = classifier.fit(self.docs).model
        self.reference: dict[str, int] = {}
        self.cursor = 0

    def batch_round(self, tally):
        self.fitted, self.predicted = [], []
        elapsed = 0.0
        documents = 0
        latencies = []
        for variant in FUSION_VARIANTS:
            train_config = TrainConfig(epochs=self.epochs, batch_size=32,
                                       seed=0, variant=variant)
            started = time.perf_counter()
            try:
                harness.run_cv(
                    self.docs, self.folds,
                    lambda: _RecordingClassifier(self, self.model_config,
                                                 train_config),
                    seed=0)
            except Exception:
                tally.raised(f"run_cv {variant.value}", 2 * self.folds)
                continue
            elapsed += time.perf_counter() - started
            # every document trains in all folds but its own, then is predicted
            documents += (self.epochs * (self.folds - 1) + 1) * self.n_docs
            latencies += self._single_calls(tally)
        with self.unobserved():
            self._check_round(tally)
        return documents, elapsed, latencies

    def _check_round(self, tally) -> None:
        for clf in self.fitted:
            tally.record(_finite_losses(clf.metrics)
                         and len(clf.metrics) == self.epochs,
                         f"non-finite training loss ({clf.train_config.variant.value})")
        for clf, docs, preds in self.predicted:
            variant = clf.train_config.variant
            tally.record(
                len(preds) == len(docs)
                and all(int(p) in VALID_LABELS for p in preds)
                and all(_logits_agree(clf.model, doc, variant, int(p))
                        for doc, p in zip(docs, preds)),
                f"bad predictions ({variant.value})")

    def _single_calls(self, tally):
        latencies = []
        model = self.latency_model
        for _ in range(self.chunk):
            doc = self.docs[self.cursor]
            self.cursor = (self.cursor + 1) % len(self.docs)
            started = time.perf_counter()
            try:
                pred = model.predict([doc])[0]
            except Exception:
                tally.raised(f"predict([{doc.id}])")
                continue
            latencies.append((time.perf_counter() - started) * 1e3)
            if doc.id not in self.reference:
                with self.unobserved():
                    logits, _ = model.forward(doc)
                self.reference[doc.id] = (int(np.argmax(logits))
                                          if np.isfinite(logits).all() else -1)
            tally.record(pred in VALID_LABELS and pred == self.reference[doc.id],
                         f"predict([{doc.id}]) disagrees with its logits")
        return latencies

    def probe(self):
        model = self.latency_model
        return model, [model.prepare(doc) for doc in self.docs]


# long-d256 element counts: n = 3S - 2 for a low document of S sentences and
# 4S - 3 for medium and high ones (every adjacent pair carries one implicit
# and one explicit relation; medium and high link every adjacent pair by
# coreference). The ladder below fixes n per slot whatever the seed, so a
# seed changes the words, senses and nouns but not the sizes.


def long_shape(n_target: int, slot: int) -> tuple[int, int]:
    """(sentences, label index) of ladder slot with about n_target elements."""
    label = slot % 3
    sentences = round((n_target + 2) / 3) if label == 0 else round((n_target + 3) / 4)
    return sentences, label


def long_documents(seed: int, targets: list[int], prefix: str) -> list:
    docs = []
    for slot, n_target in enumerate(targets):
        sentences, label = long_shape(n_target, slot)
        profile = synth.SynthProfile(name="long", n_sentences=(sentences, sentences),
                                     explicit_prob=1.0, medium_entity_prob=1.0)
        doc = synth.synth_generate(label + 1, seed * 1000 + slot, profile)[label]
        docs.append(dataclasses.replace(doc, id=f"{prefix}-{slot:03d}"))
    return docs


class LongD256(Workload):
    """Default ModelConfig (d_model 256) on documents of about 50 to 150
    elements: a short train, one predict over the held-out set, then
    single-document predict calls."""

    name = "long-d256"
    latency_docs = 100
    # single-document calls per loop iteration; three iterations reach the
    # hundred samples doc_ms_p90 needs
    chunk = 34
    train_targets = (60, 140, 100)
    model_config = ModelConfig()
    train_config = TrainConfig(epochs=1, batch_size=3, seed=0)

    def setup(self) -> None:
        # geometric ladder from 48 to 148 elements
        last = self.latency_docs - 1
        targets = [round(48 * (148 / 48) ** (i / last)) for i in range(last + 1)]
        docs = self._write_and_parse(
            long_documents(self.seed, list(self.train_targets), "train")
            + long_documents(self.seed + 1, targets, "doc"))
        self.train_set = docs[:len(self.train_targets)]
        self.latency_set = docs[len(self.train_targets):]
        self.held_out = self.latency_set[10::20]
        # a stride coprime with the ladder length spreads every size over the
        # whole run instead of calling the longest documents last
        self.order = [(i * 37) % self.latency_docs
                      for i in range(self.latency_docs)]
        self.cursor = 0
        self.model = fusion_model.FusionModel.build(self.model_config)
        self.trained = None
        self.first = None   # (params, held-out predictions) of round one
        self.batch_preds: dict[str, int] = {}

    def warmup(self) -> None:
        self.model.loss_and_grad_contexts([self.model.prepare(self.train_set[0])])
        self.model.predict([self.latency_set[-1]])

    def batch_round(self, tally):
        started = time.perf_counter()
        try:
            model, metrics = fusion_train.train(self.train_set,
                                                self.model_config,
                                                self.train_config)
            trained = time.perf_counter()
            preds = model.predict(self.held_out)
        except Exception:
            tally.raised("train and predict", 2)
            return 0, 0.0, []
        finished = time.perf_counter()
        self.train_s += trained - started
        self.train_docs += len(self.train_set) * self.train_config.epochs
        self.eval_s += finished - trained
        self.eval_docs += len(self.held_out)

        tally.record(_finite_losses(metrics), "non-finite training loss")
        if self.first is None:
            with self.unobserved():
                ok = (len(preds) == len(self.held_out)
                      and all(p in VALID_LABELS for p in preds)
                      and all(_logits_agree(model, doc, Variant.FULL, p)
                              for doc, p in zip(self.held_out, preds)))
            self.first = (model.params, preds)
        else:
            # training is bit-reproducible per seed: same model, same answers
            params, first_preds = self.first
            ok = (preds == first_preds
                  and all(np.array_equal(params[k], model.params[k])
                          for k in params))
        tally.record(ok, "held-out predictions")
        self.trained = model
        self.batch_preds = {doc.id: p for doc, p in zip(self.held_out, preds)}
        documents = len(self.train_set) * self.train_config.epochs + len(preds)
        return documents, finished - started, []

    def single_calls(self, tally):
        latencies = []
        for _ in range(self.chunk):
            doc = self.latency_set[self.order[self.cursor]]
            self.cursor = (self.cursor + 1) % len(self.order)
            started = time.perf_counter()
            try:
                pred = self.trained.predict([doc])[0]
            except Exception:
                tally.raised(f"predict([{doc.id}])")
                continue
            latencies.append((time.perf_counter() - started) * 1e3)
            tally.record(pred in VALID_LABELS
                         and self.batch_preds.get(doc.id, pred) == pred,
                         f"predict([{doc.id}])")
        return latencies

    def probe(self):
        model = self.trained
        return model, [model.prepare(doc)
                       for doc in self.train_set + self.held_out]


class Prompts(Workload):
    """The emit-prompts chain in memory: read_corpus, build_graph,
    extract_triples, then filter_triples and render_prompt per variant."""

    name = "prompts"
    n_docs = 1000
    trace_rounds = 5

    def setup(self) -> None:
        self.docs = self._write_and_parse(
            synth.synth_generate(self.n_docs, self.seed, "balanced"))

    def _chain(self, doc):
        triples = prompts.extract_triples(graph.build_graph(doc))
        return [prompts.render_prompt(doc, prompts.filter_triples(triples, v), v)
                for v in Variant]

    def warmup(self) -> None:
        for doc in self.docs[:50]:
            self._chain(doc)

    def batch_round(self, tally):
        started = time.perf_counter()
        try:
            docs = corpus.read_corpus(self.corpus_path)
        except Exception:
            tally.raised("read_corpus", self.n_docs * len(Variant))
            return 0, 0.0, []
        latencies, rendered = [], []
        for doc in docs:
            chain_started = time.perf_counter()
            try:
                out = self._chain(doc)
            except Exception:
                tally.raised(f"prompts for {doc.id}", len(Variant))
                continue
            latencies.append((time.perf_counter() - chain_started) * 1e3)
            rendered.append((doc, out))
        elapsed = time.perf_counter() - started
        self._check(rendered, tally)
        self.eval_s += elapsed
        self.eval_docs += len(rendered) * len(Variant)
        return len(rendered), elapsed, latencies

    def breakdown(self):
        return [("prompts_per_s", self.eval_docs / self.eval_s, "prompts/s")]

    def _check(self, rendered, tally) -> None:
        for doc, out in rendered:
            with self.unobserved():
                expected_triples = prompts.extract_triples(graph.build_graph(doc))
            sentence_lines = [f"s_{s.index}: {s.text}" for s in doc.sentences]
            for variant, prompt in zip(Variant, out):
                expected = [t.render() for t in
                            prompts.filter_triples(expected_triples, variant)]
                tally.record(
                    _prompt_ok(prompt.text, variant, sentence_lines, expected),
                    f"prompt {doc.id}.{variant.value}")


def _section(lines: list[str], title: str) -> list[str] | None:
    """Lines under a section title up to the next blank line."""
    if title not in lines:
        return None
    start = lines.index(title) + 1
    end = lines.index("", start)
    return lines[start:end]


def _prompt_ok(text: str, variant: Variant, sentence_lines: list[str],
               connection_lines: list[str]) -> bool:
    ending = PROMPT_QUERY
    if variant is Variant.FULL_WITH_EXPLANATION:
        ending += PROMPT_EXPLANATION
    lines = text.split("\n")
    connections = _section(lines, "Connections:")
    if variant is Variant.TEXT_ONLY:
        connections_ok = connections is None and not connection_lines
    else:
        connections_ok = connections == connection_lines
    return (text.endswith("\n\n" + ending) and connections_ok
            and _section(lines, "Sentences:") == sentence_lines)


WORKLOADS = {w.name: w for w in (ShortCV, LongD256, Prompts)}
