"""Command-line interface: outputs, exit codes, idempotence."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import cohgraph
from cohgraph.cli import main
from cohgraph.corpus import document_to_record, dumps_canonical, write_corpus
from cohgraph.fusion.model import (ContractError, FusionModel,
                                   NumericalError)
from cohgraph.synth import SynthProfile, synth_generate
from cohgraph.variants import Variant

from conftest import make_demo_document, tiny_model_config

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def demo_corpus(tmp_path):
    path = tmp_path / "demo.jsonl"
    write_corpus([make_demo_document()], path)
    return path


@pytest.fixture
def small_corpus(tmp_path):
    profile = SynthProfile(name="cli", n_sentences=(3, 4),
                           tokens_per_sentence=(3, 5),
                           domain_tags=("synthA", "synthB"))
    path = tmp_path / "small.jsonl"
    write_corpus(synth_generate(18, seed=2, profile=profile), path)
    return path


def tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


TRAIN_FLAGS = ["--epochs", "2", "--batch-size", "8", "--d-model", "16",
               "--n-heads", "2", "--n-layers", "1", "--seed", "3"]


class TestBuildGraph:
    def test_demo_counts(self, runner, demo_corpus, tmp_path):
        out = tmp_path / "graphs.jsonl"
        result = runner.invoke(main, ["build-graph", str(demo_corpus), str(out)])
        assert result.exit_code == 0, result.output
        record = json.loads(out.read_text().strip())
        assert len(record["entity_edges"]) == 3
        assert len(record["relation_edges"]) == 3
        assert "3 entity edges" in result.output

    def test_empty_corpus_warns_but_succeeds(self, runner, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "graphs.jsonl"
        result = runner.invoke(main, ["build-graph", str(empty), str(out)])
        assert result.exit_code == 0
        assert "warning" in result.output
        assert out.read_text() == ""

    def test_corrupted_line_reports_number_and_fails(self, runner, tmp_path):
        record = document_to_record(make_demo_document())
        good = [dumps_canonical(dict(record, id=f"demo-{i}")) for i in range(6)]
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text("\n".join(good + ["{broken"]) + "\n")
        result = runner.invoke(
            main, ["build-graph", str(corpus), str(tmp_path / "out.jsonl")])
        assert result.exit_code == 1
        assert "line 7" in result.output


    @pytest.mark.parametrize("command", ["build-graph", "emit-prompts"])
    @pytest.mark.parametrize("field, value", [("annotations", [1]),
                                              ("annotations", "x"),
                                              ("tokens", "ab")])
    def test_malformed_container_exits_1_naming_field_and_line(
            self, runner, tmp_path, command, field, value):
        good = document_to_record(make_demo_document())
        bad = document_to_record(make_demo_document())
        if field == "tokens":
            bad["sentences"][0]["tokens"] = value
        else:
            bad[field] = value
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text(dumps_canonical(good) + "\n" + dumps_canonical(bad)
                          + "\n")
        result = runner.invoke(main, [command, str(corpus),
                                      str(tmp_path / "out")])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "error: " in result.output and "line 2: " in result.output
        assert f"'{field}'" in result.output


class TestEmitPrompts:
    def test_full_matches_golden(self, runner, demo_corpus, tmp_path):
        out = tmp_path / "prompts"
        result = runner.invoke(main, ["emit-prompts", str(demo_corpus),
                                      str(out), "--variant", "Full"])
        assert result.exit_code == 0, result.output
        emitted = (out / "demo-0001.Full.txt").read_bytes()
        assert emitted == (GOLDEN_DIR / "demo-0001.Full.txt").read_bytes()
        index = [json.loads(line)
                 for line in (out / "index.jsonl").read_text().splitlines()]
        assert index == [{"char_count": len(emitted), "doc_id": "demo-0001",
                          "triple_count": 6, "variant": "Full"}]

    def test_textonly_has_no_triples(self, runner, demo_corpus, tmp_path):
        out = tmp_path / "prompts"
        result = runner.invoke(main, ["emit-prompts", str(demo_corpus),
                                      str(out), "--variant", "TextOnly"])
        assert result.exit_code == 0
        text = (out / "demo-0001.TextOnly.txt").read_text()
        assert "Connections:" not in text

    def test_repeated_variant_is_written_once(self, runner, demo_corpus,
                                              tmp_path):
        out = tmp_path / "prompts"
        result = runner.invoke(main, ["emit-prompts", str(demo_corpus),
                                      str(out), "--variant", "Full",
                                      "--variant", "Full"])
        assert result.exit_code == 0, result.output
        assert "1 prompts" in result.output
        index = (out / "index.jsonl").read_text().splitlines()
        assert [json.loads(line)["variant"] for line in index] == ["Full"]

    def test_rerun_is_idempotent(self, runner, small_corpus, tmp_path):
        out = tmp_path / "prompts"
        args = ["emit-prompts", str(small_corpus), str(out),
                "--variant", "Full", "--variant", "TextRel"]
        assert runner.invoke(main, args).exit_code == 0
        first = tree_hash(out)
        assert runner.invoke(main, args).exit_code == 0
        assert tree_hash(out) == first

    def test_budget_overflow_fails_loudly(self, runner, demo_corpus, tmp_path):
        result = runner.invoke(main, ["emit-prompts", str(demo_corpus),
                                      str(tmp_path / "p"), "--max-chars", "50"])
        assert result.exit_code == 1
        assert "budget" in result.output

    @pytest.mark.parametrize("doc_id", ["", ".", "..", "../escaped", "a/b",
                                        "a\\b", "nul\0id", "/absolute"])
    def test_an_id_that_is_not_one_path_component_writes_nothing(
            self, runner, tmp_path, doc_id):
        """The id is refused before anything is written: no output
        directory, and no file anywhere under tmp_path or at the absolute
        path."""
        work = tmp_path / "work"
        work.mkdir()
        if doc_id == "/absolute":
            doc_id = str(tmp_path / "absolute")
        corpus = tmp_path / "corpus.jsonl"
        write_corpus([dataclasses.replace(make_demo_document(), id=doc_id)],
                     corpus)
        result = runner.invoke(main, ["emit-prompts", str(corpus),
                                      str(work / "out")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (f"error: document id {doc_id!r} cannot "
                                 f"name a prompt file: it must be one path "
                                 f"component\n")
        assert sorted(p.name for p in tmp_path.rglob("*")) == [
            "corpus.jsonl", "work"]

    def test_a_repeated_id_writes_nothing(self, runner, tmp_path):
        demo = make_demo_document()
        corpus = tmp_path / "corpus.jsonl"
        write_corpus([demo, dataclasses.replace(demo, label=None)], corpus)
        out = tmp_path / "out"
        result = runner.invoke(main, ["emit-prompts", str(corpus), str(out)])
        assert result.exit_code == 1
        assert (f"error: {corpus}: line 2: document id 'demo-0001' is "
                f"already the id of line 1") in result.output
        assert not out.exists()


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """build-graph and emit-prompts (every variant) write byte-identical
    trees under two hash seeds: no output follows set or dict hash order,
    whatever the enums' and strings' hashes are."""
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(synth_generate(40, seed=9)
                 + [make_demo_document()], corpus)
    src = str(Path(cohgraph.__file__).parents[1])
    hashes = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}"
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for args in (["build-graph", str(corpus), str(out / "graphs.jsonl")],
                     ["emit-prompts", str(corpus), str(out / "prompts"),
                      *[flag for v in Variant for flag in ("--variant",
                                                           v.value)]]):
            proc = subprocess.run([sys.executable, "-m", "cohgraph.cli", *args],
                                  capture_output=True, text=True, env=env,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
        hashes.append(tree_hash(out))
    assert len(list((tmp_path / "seed0" / "prompts").glob("*.txt"))) == 41 * 5
    assert hashes[0] == hashes[1]


class TestSynth:
    def test_deterministic_output(self, runner, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            result = runner.invoke(main, ["synth", str(path), "--n-docs", "12",
                                          "--seed", "4"])
            assert result.exit_code == 0
        assert a.read_bytes() == b.read_bytes()


def _edit_header(ckpt: Path, edit) -> dict:
    """Rewrite a checkpoint's JSON header in place by edit(header); returns
    the edited header."""
    data = ckpt.read_bytes()
    start = len(FusionModel.MAGIC) + 8
    end = start + int.from_bytes(data[len(FusionModel.MAGIC):start], "big")
    header = json.loads(data[start:end])
    edit(header)
    blob = json.dumps(header).encode()
    ckpt.write_bytes(FusionModel.MAGIC + len(blob).to_bytes(8, "big") + blob
                     + data[end:])
    return header


class TestTrainEval:
    def test_train_twice_bit_identical_checkpoints(self, runner, small_corpus,
                                                   tmp_path):
        ckpts = []
        for name in ("a.ckpt", "b.ckpt"):
            path = tmp_path / name
            result = runner.invoke(main, ["train", str(small_corpus),
                                          str(path), *TRAIN_FLAGS])
            assert result.exit_code == 0, result.output
            ckpts.append(path.read_bytes())
        assert ckpts[0] == ckpts[1]

    def test_metrics_log_written(self, runner, small_corpus, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        result = runner.invoke(main, ["train", str(small_corpus), str(ckpt),
                                      *TRAIN_FLAGS])
        assert result.exit_code == 0
        lines = [json.loads(l) for l in
                 (tmp_path / "m.ckpt.metrics.jsonl").read_text().splitlines()]
        assert "config_hash" in lines[0]["run"]
        assert [l["epoch"] for l in lines[1:]] == [0, 1]
        assert all("loss" in l and "accuracy" in l for l in lines[1:])

    def test_eval_writes_report(self, runner, small_corpus, tmp_path):
        ckpt = tmp_path / "e.ckpt"
        assert runner.invoke(main, ["train", str(small_corpus), str(ckpt),
                                    *TRAIN_FLAGS]).exit_code == 0
        report_path = tmp_path / "report.json"
        result = runner.invoke(main, ["eval", str(ckpt), str(small_corpus),
                                      "--report", str(report_path)])
        assert result.exit_code == 0, result.output
        payload = json.loads(report_path.read_text())
        assert 0.0 <= payload["report"]["accuracy"] <= 1.0
        assert payload["n_documents"] == 18

    def test_eval_uses_the_recorded_variant_and_refuses_another(
            self, runner, small_corpus, tmp_path):
        ckpt = tmp_path / "t.ckpt"
        assert runner.invoke(main, ["train", str(small_corpus), str(ckpt),
                                    *TRAIN_FLAGS, "--variant", "TextOnly"]
                             ).exit_code == 0
        report_path = tmp_path / "report.json"
        result = runner.invoke(main, ["eval", str(ckpt), str(small_corpus),
                                      "--report", str(report_path)])
        assert result.exit_code == 0, result.output
        assert json.loads(report_path.read_text())["variant"] == "TextOnly"

        report_path.unlink()
        result = runner.invoke(main, ["eval", str(ckpt), str(small_corpus),
                                      "--report", str(report_path),
                                      "--variant", "Full"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        for name in ("TextOnly", "Full", str(ckpt)):
            assert name in result.output
        assert not report_path.exists()

    @pytest.mark.parametrize("variant", [None, "TextOnly"])
    def test_eval_format1_checkpoint_takes_any_variant(self, runner,
                                                       small_corpus, tmp_path,
                                                       variant):
        """A format 1 checkpoint records no variant: eval defaults to Full
        and accepts any --variant."""
        report_path = tmp_path / "report.json"
        flags = [] if variant is None else ["--variant", variant]
        result = runner.invoke(main, [
            "eval", str(Path(__file__).parent / "fixtures" / "v1-d8.ckpt"),
            str(small_corpus), "--report", str(report_path), *flags])
        assert result.exit_code == 0, result.output
        assert (json.loads(report_path.read_text())["variant"]
                == (variant or "Full"))

    def test_eval_config_mismatch_fails(self, runner, small_corpus, tmp_path):
        ckpt = tmp_path / "c.ckpt"
        assert runner.invoke(main, ["train", str(small_corpus), str(ckpt),
                                    *TRAIN_FLAGS]).exit_code == 0
        result = runner.invoke(main, ["eval", str(ckpt), str(small_corpus),
                                      "--report", str(tmp_path / "r.json"),
                                      "--expect-d-model", "256"])
        assert result.exit_code == 1
        assert "mismatch" in result.output

    def test_eval_of_tensors_in_another_dtype_exits_1_naming_the_path(
            self, runner, small_corpus, tmp_path):
        """A float32 checkpoint (the default) whose header claims float64
        tensors is refused before any prediction."""
        ckpt = tmp_path / "c.ckpt"
        assert runner.invoke(main, ["train", str(small_corpus), str(ckpt),
                                    *TRAIN_FLAGS]).exit_code == 0
        header = _edit_header(
            ckpt, lambda h: h["tensors"][0].update(dtype="float64"))
        assert header["config"]["dtype"] == "float32"
        report = tmp_path / "r.json"
        result = runner.invoke(main, ["eval", str(ckpt), str(small_corpus),
                                      "--report", str(report)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert str(ckpt) in result.output
        assert "is 'float64', but the config's dtype is float32" in result.output
        assert not report.exists()

    @pytest.mark.parametrize("field, value", [("share_uv", True),
                                              ("pooling", "first_sentence")])
    def test_eval_of_a_retired_field_at_another_value_exits_1(
            self, runner, small_corpus, tmp_path, field, value):
        """A checkpoint header recording a retired config field at a value
        other than the model's is refused in one line naming the path and
        the field."""
        ckpt = tmp_path / "c.ckpt"
        FusionModel.build(tiny_model_config(d_model=8, n_heads=2)).save(ckpt)
        _edit_header(ckpt, lambda h: h["config"].update({field: value}))
        report = tmp_path / "r.json"
        result = runner.invoke(main, ["eval", str(ckpt), str(small_corpus),
                                      "--report", str(report)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        [line] = result.output.splitlines()
        assert line.startswith(f"error: {ckpt}: malformed header: ")
        assert f"retired field {field} must be" in line
        assert not report.exists()

    def test_eval_malformed_checkpoint_exits_1_without_traceback(
            self, small_corpus, tmp_path):
        """Run as a real process, so an uncaught exception would print."""
        from cohgraph.fusion.model import FusionModel
        ckpt = tmp_path / "bad.ckpt"
        header = json.dumps({"format_version": 1, "tensors": []}).encode()
        ckpt.write_bytes(FusionModel.MAGIC + len(header).to_bytes(8, "big")
                         + header)
        src = str(Path(cohgraph.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "cohgraph.cli", "eval", str(ckpt),
             str(small_corpus), "--report", str(tmp_path / "r.json")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        assert str(ckpt) in proc.stderr


    @pytest.mark.parametrize("error", [ContractError, MemoryError])
    def test_eval_predict_error_exits_1_without_traceback(
            self, runner, small_corpus, tmp_path, monkeypatch, error):
        """A contract violation or an exhausted memory inside predict ends
        in exit 1 and a message naming the document."""
        ckpt = tmp_path / "p.ckpt"
        assert runner.invoke(main, ["train", str(small_corpus), str(ckpt),
                                    *TRAIN_FLAGS]).exit_code == 0

        def predict(self, docs, variant):
            raise error(f"document {docs[0].id!r}: cannot be predicted")

        monkeypatch.setattr(FusionModel, "predict", predict)
        result = runner.invoke(main, ["eval", str(ckpt), str(small_corpus),
                                      "--report", str(tmp_path / "r.json")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "error: document 'synth-" in result.output

    def test_config_file_values_survive_absent_flags(self, runner,
                                                     small_corpus, tmp_path):
        """Config-file settings hold unless the matching flag is typed."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"d_model": 16, "n_heads": 2, "n_layers": 1,
                      "n_token_buckets": 32, "n_entity_buckets": 8},
            "train": {"epochs": 1, "batch_size": 4}}))
        ckpt = tmp_path / "cfg.ckpt"
        result = runner.invoke(main, ["train", str(small_corpus), str(ckpt),
                                      "--config", str(cfg), "--n-heads", "4"])
        assert result.exit_code == 0, result.output
        from cohgraph.fusion.model import FusionModel
        model = FusionModel.load(ckpt)
        assert model.config.d_model == 16      # from the file
        assert model.config.n_heads == 4       # explicit flag wins
        assert model.config.n_token_buckets == 32

    def test_invalid_config_rejected_before_compute(self, runner, small_corpus,
                                                    tmp_path):
        result = runner.invoke(main, ["train", str(small_corpus),
                                      str(tmp_path / "x.ckpt"),
                                      "--d-model", "10", "--n-heads", "3"])
        assert result.exit_code == 1
        assert "divisible" in result.output

    def test_prompt_only_variant_rejected_in_the_train_config(
            self, runner, small_corpus, tmp_path):
        """A config file's prompt-only training variant exits 1 naming it
        and the fusion variants, and writes no checkpoint."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"d_model": 16, "n_heads": 2},
                                   "train": {"variant": "FullWithExplanation",
                                             "epochs": 1}}))
        ckpt = tmp_path / "x.ckpt"
        result = runner.invoke(main, ["train", str(small_corpus), str(ckpt),
                                      "--config", str(cfg)])
        assert result.exit_code == 1
        assert "invalid configuration" in result.output
        assert "FullWithExplanation is prompt-only" in result.output
        assert "TextOnly, TextEnty, TextRel, Full" in result.output
        assert "Traceback" not in result.output
        assert not ckpt.exists()


class TestCvAndXdomain:
    def test_cv_report_shape(self, runner, small_corpus, tmp_path):
        report_path = tmp_path / "cv.json"
        result = runner.invoke(main, ["cv", str(small_corpus), "--k", "3",
                                      "--report", str(report_path),
                                      *TRAIN_FLAGS])
        assert result.exit_code == 0, result.output
        payload = json.loads(report_path.read_text())
        assert len(payload["result"]["folds"]) == 3
        assert "accuracy" in payload["result"]["mean"]
        assert "accuracy" in payload["result"]["std"]

    def test_xdomain_reports_deltas(self, runner, small_corpus, tmp_path):
        report_path = tmp_path / "xd.json"
        result = runner.invoke(main, ["xdomain", str(small_corpus),
                                      "--train-tag", "synthA",
                                      "--test-tag", "synthB",
                                      "--report", str(report_path),
                                      *TRAIN_FLAGS])
        assert result.exit_code == 0, result.output
        payload = json.loads(report_path.read_text())
        (transfer,) = payload["transfers"]
        assert transfer["test_tag"] == "synthB"
        assert "accuracy_delta" in transfer

    def test_unknown_tag_fails(self, runner, small_corpus, tmp_path):
        result = runner.invoke(main, ["xdomain", str(small_corpus),
                                      "--train-tag", "nope",
                                      "--test-tag", "synthB",
                                      "--report", str(tmp_path / "x.json"),
                                      *TRAIN_FLAGS])
        assert result.exit_code == 1
        assert "nope" in result.output


def _raising(error, doc_id):
    """A stand-in for a model method whose first argument lists documents
    or contexts: it raises error naming the first of them."""
    def method(self, items, *args, **kwargs):
        raise error(f"document {doc_id(items[0])!r}: cannot be computed")
    return method


# (command, its arguments after the corpus, the failing FusionModel method,
# how that method's first argument names a document)
FAILING_CALLS = [
    ("train", lambda tmp: [str(tmp / "t.ckpt")], "loss_and_grad_contexts",
     lambda ctx: ctx.doc_id),
    ("cv", lambda tmp: ["--k", "3", "--report", str(tmp / "r.json")],
     "loss_and_grad_contexts", lambda ctx: ctx.doc_id),
    ("cv", lambda tmp: ["--k", "3", "--report", str(tmp / "r.json")],
     "predict", lambda doc: doc.id),
    ("xdomain", lambda tmp: ["--train-tag", "synthA", "--test-tag", "synthB",
                             "--report", str(tmp / "r.json")],
     "loss_and_grad_contexts", lambda ctx: ctx.doc_id),
    ("xdomain", lambda tmp: ["--train-tag", "synthA", "--test-tag", "synthB",
                             "--report", str(tmp / "r.json")],
     "predict", lambda doc: doc.id),
]


@pytest.mark.parametrize("error, code", [(ContractError, 1), (MemoryError, 1),
                                         (NumericalError, 2)])
@pytest.mark.parametrize("command, args, method, doc_id", FAILING_CALLS,
                         ids=[f"{c[0]}-{c[2]}" for c in FAILING_CALLS])
def test_training_commands_exit_with_the_error_code_without_traceback(
        runner, small_corpus, tmp_path, monkeypatch, command, args, method,
        doc_id, error, code):
    """A contract violation or exhausted memory ends in exit 1, a
    numerical failure in a training step or in a prediction in exit 2,
    each with a message naming the document."""
    monkeypatch.setattr(FusionModel, method, _raising(error, doc_id))
    result = runner.invoke(main, [command, str(small_corpus), *args(tmp_path),
                                  *TRAIN_FLAGS])
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "error: " in result.output
    assert "document 'synth-" in result.output


@pytest.mark.parametrize("command, args", [
    ("build-graph", lambda tmp: [str(tmp / "out" / "g.jsonl")]),
    ("train", lambda tmp: [str(tmp / "out" / "t.ckpt"), *TRAIN_FLAGS]),
    ("cv", lambda tmp: ["--k", "3", "--report", str(tmp / "out" / "r.json"),
                        *TRAIN_FLAGS]),
    ("xdomain", lambda tmp: ["--train-tag", "synthA", "--test-tag", "synthB",
                             "--report", str(tmp / "out" / "r.json"),
                             *TRAIN_FLAGS]),
], ids=["build-graph", "train", "cv", "xdomain"])
def test_a_repeated_id_exits_1_naming_both_lines(runner, small_corpus,
                                                 tmp_path, command, args):
    corpus = tmp_path / "repeated.jsonl"
    lines = small_corpus.read_text().splitlines(keepends=True)
    corpus.write_text("".join(lines + lines[2:3]))
    doc_id = json.loads(lines[2])["id"]
    result = runner.invoke(main, [command, str(corpus), *args(tmp_path)])
    assert result.exit_code == 1, result.output
    assert result.output.splitlines() == [
        f"error: {corpus}: line {len(lines) + 1}: document id {doc_id!r} is "
        f"already the id of line 3"]
    assert not (tmp_path / "out").exists()


class TestHelp:
    @pytest.mark.parametrize("command", ["build-graph", "emit-prompts",
                                         "train", "eval", "cv", "xdomain",
                                         "synth"])
    def test_help_lists_flags(self, runner, command):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        assert "--help" in result.output

    def test_unknown_flag_is_hard_error(self, runner):
        result = runner.invoke(main, ["synth", "out.jsonl", "--bogus"])
        assert result.exit_code == 1


class TestFrontDoor:
    """Every malformed command line and every unwritable output ends in
    exit 1 with one message, never a traceback or click's exit 2."""

    @staticmethod
    def assert_usage_error(result, token):
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "Error:" in result.output and token in result.output

    # (command, what is malformed, its arguments; {corpus} names the corpus,
    # which also stands in for eval's checkpoint since parsing fails before
    # it is read, and {tmp} a scratch directory)
    MALFORMED = [
        ("build-graph", "missing", ["{tmp}/nope.jsonl", "{tmp}/g.jsonl"]),
        ("build-graph", "option", ["{corpus}", "{tmp}/g.jsonl", "--bogus"]),
        ("emit-prompts", "integer",
         ["{corpus}", "{tmp}/p", "--max-chars", "abc"]),
        ("emit-prompts", "choice", ["{corpus}", "{tmp}/p", "--variant", "Bogus"]),
        ("emit-prompts", "missing", ["{tmp}/nope.jsonl", "{tmp}/p"]),
        ("emit-prompts", "option", ["{corpus}", "{tmp}/p", "--bogus"]),
        ("synth", "integer", ["{tmp}/s.jsonl", "--n-docs", "abc"]),
        ("synth", "choice", ["{tmp}/s.jsonl", "--profile", "Bogus"]),
        ("synth", "option", ["{tmp}/s.jsonl", "--bogus"]),
        ("train", "integer", ["{corpus}", "{tmp}/t.ckpt", "--epochs", "abc"]),
        ("train", "choice", ["{corpus}", "{tmp}/t.ckpt", "--variant", "Bogus"]),
        ("train", "missing", ["{tmp}/nope.jsonl", "{tmp}/t.ckpt"]),
        ("train", "option", ["{corpus}", "{tmp}/t.ckpt", "--bogus"]),
        ("eval", "integer", ["{corpus}", "{corpus}", "--report", "{tmp}/r.json",
                             "--expect-d-model", "abc"]),
        ("eval", "choice", ["{corpus}", "{corpus}", "--report", "{tmp}/r.json",
                            "--variant", "Bogus"]),
        ("eval", "missing", ["{tmp}/nope.ckpt", "{corpus}",
                             "--report", "{tmp}/r.json"]),
        ("eval", "option", ["{corpus}", "{corpus}", "--report", "{tmp}/r.json",
                            "--bogus"]),
        ("cv", "integer", ["{corpus}", "--report", "{tmp}/r.json",
                           "--k", "abc"]),
        ("cv", "choice", ["{corpus}", "--report", "{tmp}/r.json",
                          "--variant", "Bogus"]),
        ("cv", "missing", ["{tmp}/nope.jsonl", "--report", "{tmp}/r.json"]),
        ("cv", "option", ["{corpus}", "--report", "{tmp}/r.json", "--bogus"]),
        ("xdomain", "integer", ["{corpus}", "--report", "{tmp}/r.json",
                                "--train-tag", "synthA", "--test-tag", "synthB",
                                "--epochs", "abc"]),
        ("xdomain", "choice", ["{corpus}", "--report", "{tmp}/r.json",
                               "--train-tag", "synthA", "--test-tag", "synthB",
                               "--variant", "Bogus"]),
        ("xdomain", "missing", ["{tmp}/nope.jsonl", "--report", "{tmp}/r.json",
                                "--train-tag", "synthA",
                                "--test-tag", "synthB"]),
        ("xdomain", "option", ["{corpus}", "--report", "{tmp}/r.json",
                               "--train-tag", "synthA", "--test-tag", "synthB",
                               "--bogus"]),
    ]
    # the token click's message names for each kind of mistake
    TOKENS = {"integer": "abc", "choice": "Bogus", "missing": "nope",
              "option": "--bogus"}

    @pytest.mark.parametrize("command, kind, args", MALFORMED,
                             ids=[f"{c}-{k}" for c, k, _ in MALFORMED])
    def test_malformed_command_line_exits_1(self, runner, small_corpus,
                                            tmp_path, command, kind, args):
        names = {"corpus": small_corpus, "tmp": tmp_path}
        result = runner.invoke(main, [command,
                                      *(a.format(**names) for a in args)])
        self.assert_usage_error(result, self.TOKENS[kind])
        assert [p.name for p in tmp_path.iterdir()] == [small_corpus.name]

    @pytest.mark.parametrize("args, token", [
        (["nope"], "nope"),
        (["--bogus", "synth", "out.jsonl"], "--bogus"),
    ], ids=["unknown-command", "group-option"])
    def test_malformed_group_command_line_exits_1(self, runner, args, token):
        self.assert_usage_error(runner.invoke(main, args), token)

    # (command, its arguments with one output under {blocker}, a regular
    # file; {corpus} and {tmp} as above; the cli functions that must not run
    # because the output is checked first)
    UNWRITABLE = [
        ("build-graph", ["{corpus}", "{blocker}/g.jsonl"], []),
        ("emit-prompts", ["{corpus}", "{blocker}/prompts"], []),
        ("synth", ["{blocker}/s.jsonl", "--n-docs", "4"], []),
        ("train", ["{corpus}", "{blocker}/t.ckpt", *TRAIN_FLAGS],
         ["train_model"]),
        ("train", ["{corpus}", "{tmp}/t.ckpt", "--metrics-log",
                   "{blocker}/m.jsonl", *TRAIN_FLAGS], ["train_model"]),
        ("eval", [str(Path(__file__).parent / "fixtures" / "v1-d8.ckpt"),
                  "{corpus}", "--report", "{blocker}/r.json"], []),
        ("cv", ["{corpus}", "--k", "3", "--report", "{blocker}/r.json",
                *TRAIN_FLAGS], ["run_cv"]),
        ("xdomain", ["{corpus}", "--train-tag", "synthA", "--test-tag",
                     "synthB", "--report", "{blocker}/r.json", *TRAIN_FLAGS],
         ["cross_domain"]),
    ]

    @pytest.mark.parametrize("command, args, not_run", UNWRITABLE, ids=[
        "build-graph", "emit-prompts", "synth", "train-checkpoint",
        "train-metrics-log", "eval", "cv", "xdomain"])
    def test_output_under_a_regular_file_exits_1(
            self, runner, small_corpus, tmp_path, monkeypatch, command, args,
            not_run):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file\n")
        for name in not_run:
            def forbidden(*_, name=name, **__):
                raise AssertionError(f"{name} ran before the output was made")
            monkeypatch.setattr(f"cohgraph.cli.{name}", forbidden)
        names = {"corpus": small_corpus, "tmp": tmp_path, "blocker": blocker}
        result = runner.invoke(main, [command,
                                      *(a.format(**names) for a in args)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "error: " in result.output and str(blocker) in result.output

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                        reason="every directory is writable for root")
    @pytest.mark.parametrize("command, args, not_run", [
        ("train", ["{corpus}", "{ro}/t.ckpt", *TRAIN_FLAGS], "train_model"),
        ("cv", ["{corpus}", "--k", "3", "--report", "{ro}/r.json",
                *TRAIN_FLAGS], "run_cv"),
    ], ids=["train", "cv"])
    def test_output_in_a_read_only_directory_exits_1_before_the_fit(
            self, runner, small_corpus, tmp_path, monkeypatch, command, args,
            not_run):
        read_only = tmp_path / "ro"
        read_only.mkdir()
        read_only.chmod(0o555)

        def forbidden(*_, **__):
            raise AssertionError(f"{not_run} ran before the output was tried")
        monkeypatch.setattr(f"cohgraph.cli.{not_run}", forbidden)
        names = {"corpus": small_corpus, "ro": read_only}
        try:
            result = runner.invoke(main, [command,
                                          *(a.format(**names) for a in args)])
        finally:
            read_only.chmod(0o755)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "error: " in result.output and str(read_only) in result.output
        assert list(read_only.iterdir()) == []

    @pytest.mark.parametrize("command, args, made", [
        ("build-graph", ["{corpus}", "{tmp}/new/g.jsonl"], ["new/g.jsonl"]),
        ("emit-prompts", ["{corpus}", "{tmp}/new/p"], ["new/p/index.jsonl"]),
        ("synth", ["{tmp}/new/s.jsonl", "--n-docs", "4"], ["new/s.jsonl"]),
        ("train", ["{corpus}", "{tmp}/new/deeper/t.ckpt", *TRAIN_FLAGS],
         ["new/deeper/t.ckpt", "new/deeper/t.ckpt.metrics.jsonl"]),
    ], ids=["build-graph", "emit-prompts", "synth", "train"])
    def test_output_under_a_missing_directory_is_created(
            self, runner, small_corpus, tmp_path, command, args, made):
        names = {"corpus": small_corpus, "tmp": tmp_path}
        result = runner.invoke(main, [command,
                                      *(a.format(**names) for a in args)])
        assert result.exit_code == 0, result.output
        for name in made:
            assert (tmp_path / name).is_file()
        # the writability probe leaves no file of its own behind
        assert sorted(p.name for p in (tmp_path / made[0]).parent.iterdir()
                      if p.suffix not in (".txt",)) == sorted(
                          Path(name).name for name in made)

    def test_budget_overflow_exits_1_with_its_summary(self, runner,
                                                      demo_corpus, tmp_path):
        result = runner.invoke(main, ["emit-prompts", str(demo_corpus),
                                      str(tmp_path / "p"),
                                      "--max-chars", "50"])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "error: 1 documents exceeded the prompt budget" in result.output

    def test_bare_command_prints_help_and_exits_0(self, runner):
        result = runner.invoke(main, [])
        assert result.exit_code == 0, result.output
        assert "Usage:" in result.output and "build-graph" in result.output
