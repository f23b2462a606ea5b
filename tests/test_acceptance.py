"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. Criterion 7 trains twenty-one toy models (4 variants x 5
folds + one full-corpus fit) and dominates the runtime.
"""

import dataclasses
import hashlib
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from cohgraph.cli import main as cli_main
from cohgraph.corpus import write_corpus
from cohgraph.flat import FlatSequence, linearize
from cohgraph.fusion.config import ModelConfig, TrainConfig
from cohgraph.fusion.masking import MASKED, softmax, visible_matrix
from cohgraph.fusion.model import FusionModel, HeadParams
from cohgraph.fusion.train import FusionClassifier, train
from cohgraph.graph import build_graph
from cohgraph.harness import run_cv
from cohgraph.labels import CoherenceLabel
from cohgraph.metrics import accuracy, macro_f1, per_label_report
from cohgraph.prompts import extract_triples, prompt_for
from cohgraph.relations import RelationKind, load_registry
from cohgraph.synth import SynthProfile, synth_generate
from cohgraph.variants import Variant

from conftest import make_demo_document, tiny_model_config
from oracles import head_slice
from test_masking import oracle_visible, random_flat_sequence

GOLDEN_DIR = Path(__file__).parent / "golden"

# toy configuration pinned for the constructed experiments (criterion 7)
ABLATION_MODEL = dict(d_model=32, n_heads=2, n_layers=2, d_ffn=64,
                      n_token_buckets=512, n_entity_buckets=128, seed=0)
ABLATION_EPOCHS = 18
ABLATION_CORPUS_SEED = 11


def report(line: str) -> None:
    print(f"[acceptance] {line}")


def test_c01_demo_pipeline_exact():
    """C1: fixture -> the six canonical triples in order; prompt byte-equal
    to the golden file; under one second."""
    started = time.perf_counter()
    doc = make_demo_document()
    graph = build_graph(doc)
    triples = extract_triples(graph)
    assert [(t.i, t.label, t.j) for t in triples] == [
        (1, "entity", 2), (1, "reason", 2), (1, "entity", 4),
        (2, "instantiation", 3), (2, "entity", 4), (3, "result", 4)]
    prompt = prompt_for(doc, graph, Variant.FULL)
    golden = (GOLDEN_DIR / "demo-0001.Full.txt").read_bytes()
    assert prompt.text.encode("utf-8") == golden
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(f"C1 PASS demo pipeline exact (six triples, golden prompt, "
           f"{elapsed * 1000:.0f} ms)")


def test_c02_visible_matrix_oracle():
    """C2: mask equals the brute-force condition oracle cell-for-cell on the
    demo sequence and 200 random sequences; symmetric, visible diagonal."""
    demo_seq = linearize(build_graph(make_demo_document()))
    sequences = [demo_seq]
    rng = np.random.default_rng(202)
    sequences += [random_flat_sequence(rng) for _ in range(200)]
    for seq in sequences:
        mask = visible_matrix(seq)
        np.testing.assert_array_equal(mask, oracle_visible(seq))
        np.testing.assert_array_equal(mask, mask.T)
        np.testing.assert_array_equal(np.diag(mask), np.zeros(len(seq)))
    report(f"C2 PASS visible matrix matches oracle on {len(sequences)} sequences")


def test_c03_masked_softmax_mass():
    """C3: rows sum to one within 1e-9 over visible entries; masked entries
    carry below 1e-12 mass, on 100 random score/mask pairs, for
    softmax(scores + mask), the expression the attention kernel runs."""
    rng = np.random.default_rng(303)
    worst_row = 0.0
    worst_masked = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 16))
        scores = rng.normal(0, 4, (n, n))
        visible = rng.random((n, n)) < 0.45
        np.fill_diagonal(visible, True)
        probs = softmax(scores + np.where(visible, 0.0, MASKED))
        worst_row = max(worst_row, np.abs(probs.sum(axis=1) - 1.0).max())
        worst_masked = max(worst_masked, probs[~visible].max(initial=0.0))
    assert worst_row < 1e-9
    assert worst_masked < 1e-12
    report(f"C3 PASS masked softmax (row-sum err {worst_row:.1e}, "
           f"masked mass {worst_masked:.1e})")


def test_c04_gradient_check():
    """C4: analytic gradients vs central finite differences (eps = 1e-3) on
    a d_model=32, 2-head, 1-layer config and a 3-document batch, within 1e-4
    relative error per parameter tensor and per head's block of a stacked
    head tensor (its columns of W_q, W_k, W_r, W_v, its row of u, v), in
    under 60 seconds."""
    started = time.perf_counter()
    config = tiny_model_config()  # d_model=32, 2 heads, 1 layer
    assert (config.d_model, config.n_heads, config.n_layers) == (32, 2, 1)
    model = FusionModel.build(config)
    profile = SynthProfile(name="fd", n_sentences=(3, 4),
                           tokens_per_sentence=(4, 6), domain_tags=("synthA",))
    docs = synth_generate(3, seed=2, profile=profile)
    contexts = [model.prepare(doc) for doc in docs]
    _, grads = model.loss_and_grad_contexts(contexts)

    eps = 1e-3
    fds = {}
    for name in sorted(model.params):
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
        fds[name] = fd

    fields = [f.name for f in dataclasses.fields(HeadParams)]
    stacked = lambda arrays: HeadParams(*(arrays[f"layer0/{f}"]
                                          for f in fields))
    checks = [(name, grads[name], fds[name]) for name in sorted(fds)]
    for h in range(config.n_heads):
        got, want = head_slice(stacked(grads), h), head_slice(stacked(fds), h)
        checks += [(f"layer0/{f} head {h}", getattr(got, f), getattr(want, f))
                   for f in fields]
    worst = 0.0
    worst_name = ""
    for label, got, want in checks:
        denom = max(np.linalg.norm(got), np.linalg.norm(want), 1e-12)
        rel = np.linalg.norm(got - want) / denom
        if rel > worst:
            worst, worst_name = rel, label
        assert rel < 1e-4, f"{label}: relative error {rel:.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(f"C4 PASS gradients vs finite differences "
           f"(worst {worst:.1e} at {worst_name}, {elapsed:.0f} s)")


def test_c05_permutation_equivariance():
    """C5: permuting non-sentence flat elements moves logits by < 1e-6 on 50
    random documents."""
    model = FusionModel.build(tiny_model_config())
    profile = SynthProfile(name="perm", n_sentences=(4, 8),
                           domain_tags=("synthA",))
    docs = synth_generate(50, seed=50, profile=profile)
    rng = np.random.default_rng(505)
    worst = 0.0
    for doc in docs:
        seq = model.sequence_for(doc)
        base, _, _ = model.forward_context(model.prepare_sequence(doc, seq))
        n_sent = seq.n_sentences
        tail = list(seq.elements[n_sent:])
        perm = rng.permutation(len(tail))
        shuffled = FlatSequence(
            seq.elements[:n_sent] + tuple(tail[i] for i in perm),
            seq.n_sentences)
        permuted, _, _ = model.forward_context(
            model.prepare_sequence(doc, shuffled))
        worst = max(worst, np.abs(permuted - base).max())
    assert worst < 1e-6
    report(f"C5 PASS permutation equivariance over 50 documents "
           f"(max logit shift {worst:.1e})")


def test_c06_edge_free_equals_textonly():
    """C6: documents without edges produce logits bit-equal to the TextOnly
    ablation path in eval mode."""
    from cohgraph.documents import AnnotationSet, Document, Sentence
    model = FusionModel.build(tiny_model_config())
    rng = np.random.default_rng(606)
    for trial in range(20):
        n = int(rng.integers(1, 6))
        sentences = tuple(
            Sentence(k + 1, f"word{rng.integers(40)} word{rng.integers(40)}",
                     (f"word{rng.integers(40)}", f"word{rng.integers(40)}"))
            for k in range(n))
        doc = Document(id=f"bare-{trial}", sentences=sentences,
                       label=CoherenceLabel.LOW,
                       annotations=AnnotationSet()).validate()
        full, _ = model.forward(doc, variant=Variant.FULL)
        textonly, _ = model.forward(doc, variant=Variant.TEXT_ONLY)
        np.testing.assert_array_equal(full, textonly)
    report("C6 PASS edge-free documents equal the TextOnly path bit-for-bit")


@pytest.mark.slow
def test_c07_ablation_ordering_on_synthetic_data():
    """C7: 5-fold CV on a 500-document synthetic corpus: Full beats each
    single-channel ablation by 0.02 and each ablation beats TextOnly by
    0.05 mean accuracy; Full fits its training set to 0.90 accuracy within
    20 epochs; all inside ten minutes."""
    started = time.perf_counter()
    docs = synth_generate(500, seed=ABLATION_CORPUS_SEED, profile="balanced")
    means = {}
    for variant in (Variant.TEXT_ONLY, Variant.TEXT_ENTY, Variant.TEXT_REL,
                    Variant.FULL):
        model_config = ModelConfig(**ABLATION_MODEL)
        train_config = TrainConfig(epochs=ABLATION_EPOCHS, seed=0,
                                   batch_size=32, variant=variant)
        result = run_cv(docs, 5,
                        lambda: FusionClassifier(model_config, train_config),
                        seed=0)
        means[variant] = result.mean["accuracy"]

    full = means[Variant.FULL]
    enty = means[Variant.TEXT_ENTY]
    rel = means[Variant.TEXT_REL]
    text = means[Variant.TEXT_ONLY]
    assert enty >= text + 0.05, f"TextEnty {enty:.3f} vs TextOnly {text:.3f}"
    assert rel >= text + 0.05, f"TextRel {rel:.3f} vs TextOnly {text:.3f}"
    assert full >= enty + 0.02, f"Full {full:.3f} vs TextEnty {enty:.3f}"
    assert full >= rel + 0.02, f"Full {full:.3f} vs TextRel {rel:.3f}"

    _, metrics = train(docs, ModelConfig(**ABLATION_MODEL),
                       TrainConfig(epochs=20, seed=0, batch_size=32,
                                   variant=Variant.FULL))
    best_train = max(m.accuracy for m in metrics)
    assert best_train >= 0.90, f"Full training accuracy peaked at {best_train:.3f}"

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    report(f"C7 PASS ablation ordering: TextOnly {text:.3f} | "
           f"TextEnty {enty:.3f} | TextRel {rel:.3f} | Full {full:.3f}; "
           f"Full train acc {best_train:.3f}; {elapsed:.0f} s")


def test_c08_metric_oracles():
    """C8: accuracy, macro-F1, and per-label range agree with brute-force
    counting on 1000 random fixtures; the published-style recall example
    (0.6667/0.7899/0.7788) gives range 0.1232 to four decimals."""
    rng = np.random.default_rng(808)
    for _ in range(1000):
        n = int(rng.integers(3, 40))
        preds = [CoherenceLabel(int(x)) for x in rng.integers(0, 3, n)]
        golds = [CoherenceLabel(int(x)) for x in rng.integers(0, 3, n)]
        matches = sum(1 for p, g in zip(preds, golds) if p == g)
        assert accuracy(preds, golds) == matches / n
        f1s = []
        for c in range(3):
            tp = sum(1 for p, g in zip(preds, golds) if int(p) == c and int(g) == c)
            fp = sum(1 for p, g in zip(preds, golds) if int(p) == c and int(g) != c)
            fn = sum(1 for p, g in zip(preds, golds) if int(p) != c and int(g) == c)
            f1s.append(2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0)
        assert macro_f1(preds, golds) == pytest.approx(np.mean(f1s), abs=1e-12)
        rep = per_label_report(preds, golds)
        recalls = {}
        for c in range(3):
            support = sum(1 for g in golds if int(g) == c)
            if support:
                correct = sum(1 for p, g in zip(preds, golds)
                              if int(g) == c and p == g)
                recalls[c] = correct / support
        assert rep.range == pytest.approx(
            max(recalls.values()) - min(recalls.values()), abs=1e-12)

    # recalls 6667/10000, 7899/10000, 7788/10000 per class
    preds, golds = [], []
    for label, correct in ((CoherenceLabel.LOW, 6667),
                           (CoherenceLabel.MEDIUM, 7899),
                           (CoherenceLabel.HIGH, 7788)):
        wrong_label = CoherenceLabel((int(label) + 1) % 3)
        for i in range(10_000):
            golds.append(label)
            preds.append(label if i < correct else wrong_label)
    rep = per_label_report(preds, golds)
    assert round(rep.per_label_accuracy[CoherenceLabel.LOW], 4) == 0.6667
    assert round(rep.per_label_accuracy[CoherenceLabel.MEDIUM], 4) == 0.7899
    assert round(rep.per_label_accuracy[CoherenceLabel.HIGH], 4) == 0.7788
    assert round(rep.range, 4) == 0.1232
    report("C8 PASS metric oracles on 1000 fixtures; range example 0.1232")


def test_c09_registry():
    """C9: 15 explicit and 15 implicit senses (NoRel included); per-kind
    prior sums land in [0.99, 1.01]."""
    registry = load_registry()
    assert len(registry.names(RelationKind.EXPLICIT)) == 15
    assert len(registry.names(RelationKind.IMPLICIT)) == 15
    assert "NoRel" in registry.names(RelationKind.IMPLICIT)
    sums = {}
    for kind in RelationKind:
        total = sum(registry.priors(kind).values())
        assert 0.99 <= total <= 1.01
        sums[kind.value] = total
    report(f"C9 PASS registry (prior sums {sums['explicit']:.4f} explicit, "
           f"{sums['implicit']:.4f} implicit)")


def test_c10_cli_determinism(tmp_path):
    """C10: train twice with one seed -> bit-identical checkpoints;
    emit-prompts rerun -> identical directory hash."""
    runner = CliRunner()
    profile = SynthProfile(name="det", n_sentences=(3, 4),
                           tokens_per_sentence=(3, 5),
                           domain_tags=("synthA",))
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(synth_generate(15, seed=1, profile=profile), corpus)

    checkpoints = []
    for name in ("one.ckpt", "two.ckpt"):
        result = runner.invoke(cli_main, [
            "train", str(corpus), str(tmp_path / name),
            "--epochs", "2", "--batch-size", "8", "--d-model", "16",
            "--n-heads", "2", "--n-layers", "1", "--seed", "12"])
        assert result.exit_code == 0, result.output
        checkpoints.append((tmp_path / name).read_bytes())
    assert checkpoints[0] == checkpoints[1]

    def tree_hash(root: Path) -> str:
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*")):
            if path.is_file():
                digest.update(path.name.encode())
                digest.update(path.read_bytes())
        return digest.hexdigest()

    prompt_dir = tmp_path / "prompts"
    hashes = []
    for _ in range(2):
        result = runner.invoke(cli_main, [
            "emit-prompts", str(corpus), str(prompt_dir),
            "--variant", "Full", "--variant", "TextOnly"])
        assert result.exit_code == 0, result.output
        hashes.append(tree_hash(prompt_dir))
    assert hashes[0] == hashes[1]
    report("C10 PASS bit-identical checkpoints and prompt directory hashes")
