"""Command-line interface: outputs, exit codes, idempotence."""

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
from cohgraph.fusion.model import ContractError, FusionModel
from cohgraph.synth import SynthProfile, synth_generate

from conftest import make_demo_document

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
        good = dumps_canonical(document_to_record(make_demo_document()))
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text("\n".join([good] * 6 + ["{broken"]) + "\n")
        result = runner.invoke(
            main, ["build-graph", str(corpus), str(tmp_path / "out.jsonl")])
        assert result.exit_code == 1
        assert "line 7" in result.output


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


class TestSynth:
    def test_deterministic_output(self, runner, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            result = runner.invoke(main, ["synth", str(path), "--n-docs", "12",
                                          "--seed", "4"])
            assert result.exit_code == 0
        assert a.read_bytes() == b.read_bytes()


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

    def test_eval_config_mismatch_fails(self, runner, small_corpus, tmp_path):
        ckpt = tmp_path / "c.ckpt"
        assert runner.invoke(main, ["train", str(small_corpus), str(ckpt),
                                    *TRAIN_FLAGS]).exit_code == 0
        result = runner.invoke(main, ["eval", str(ckpt), str(small_corpus),
                                      "--report", str(tmp_path / "r.json"),
                                      "--expect-d-model", "256"])
        assert result.exit_code == 1
        assert "mismatch" in result.output

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
        assert result.exit_code != 0
