"""Command-line front door.

Subcommands: build-graph, emit-prompts, train, eval, cv, xdomain, synth.
Exit codes: 0 success, 1 input error, 2 numerical failure. Logs go to
stderr, data to files or stdout. Every output artifact is stamped with the
resolved configuration and its hash, and every command is idempotent for
identical inputs and seeds.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

import click

from .corpus import CorpusFormatError, dumps_canonical, read_corpus, write_corpus
from .documents import Document
from .fusion.config import ModelConfig, TrainConfig, config_hash
from .fusion.model import ContractError, FusionModel, NumericalError
from .fusion.train import FusionClassifier, TrainingDivergedError, train as train_model
from .graph import GraphStructureError, build_graph, graph_to_record
from .harness import cross_domain, run_cv
from .metrics import per_label_report
from .prompts import PromptBudgetError, extract_triples, filter_triples, render_prompt
from .synth import PROFILES, synth_generate
from .variants import FUSION_VARIANTS, Variant

EXIT_INPUT_ERROR = 1
EXIT_NUMERICAL_ERROR = 2

_INPUT_ERRORS = (CorpusFormatError, GraphStructureError, ContractError,
                 PromptBudgetError, ValueError, OSError)


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@contextlib.contextmanager
def _exit_on_failure():
    """End a failed computation with its exit code and message, never a
    traceback: 2 for a numerical failure, 1 for bad input, a violated
    contract or exhausted memory."""
    try:
        yield
    except (TrainingDivergedError, NumericalError) as exc:
        _fail(EXIT_NUMERICAL_ERROR, str(exc))
    except _INPUT_ERRORS + (MemoryError,) as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))


def _read_corpus(path: str) -> list[Document]:
    try:
        return read_corpus(path)
    except _INPUT_ERRORS as exc:
        _fail(EXIT_INPUT_ERROR, f"{path}: {exc}")


def _variant(name: str) -> Variant:
    try:
        return Variant(name)
    except ValueError:
        _fail(EXIT_INPUT_ERROR,
              f"unknown variant {name!r}; expected one of "
              f"{[v.value for v in Variant]}")


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(EXIT_INPUT_ERROR, f"config file {path}: {exc}")
    if not isinstance(data, dict):
        _fail(EXIT_INPUT_ERROR, f"config file {path}: expected a JSON object")
    return data


def _resolve_configs(config_file: str | None, seed: int | None,
                     variant: str | None, epochs: int | None,
                     lr: float | None, batch_size: int | None,
                     d_model: int | None, n_heads: int | None,
                     n_layers: int | None,
                     dropout: float | None) -> tuple[ModelConfig, TrainConfig]:
    """Explicit flags win over config-file values, which win over defaults."""
    file_cfg = _load_config_file(config_file)
    model_kwargs = dict(file_cfg.get("model", {}))
    train_kwargs = dict(file_cfg.get("train", {}))
    model_overrides = {"d_model": d_model, "n_heads": n_heads,
                       "n_layers": n_layers, "dropout_rate": dropout,
                       "seed": seed}
    train_overrides = {"lr": lr, "batch_size": batch_size, "epochs": epochs,
                       "seed": seed, "variant": variant}
    model_kwargs.update({k: v for k, v in model_overrides.items()
                         if v is not None})
    train_kwargs.update({k: v for k, v in train_overrides.items()
                         if v is not None})
    try:
        model_config = ModelConfig(**model_kwargs)
        train_config = TrainConfig.from_dict(train_kwargs)
    except (TypeError, ValueError) as exc:
        _fail(EXIT_INPUT_ERROR, f"invalid configuration: {exc}")
    return model_config, train_config


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))
        fh.write("\n")


def _provenance(model_config: ModelConfig, train_config: TrainConfig) -> dict:
    return {"model_config": model_config.to_dict(),
            "train_config": train_config.to_dict(),
            "config_hash": config_hash(model_config, train_config)}


@click.group()
def main() -> None:
    """Coherence-graph toolkit: graphs, prompts, fusion training, reports."""


@main.command("build-graph")
@click.argument("corpus_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_path", type=click.Path(dir_okay=False))
def cmd_build_graph(corpus_path: str, out_path: str) -> None:
    """Dump one coherence-graph record per corpus document (JSON lines)."""
    docs = _read_corpus(corpus_path)
    if not docs:
        click.echo(f"warning: {corpus_path} contains no documents", err=True)
    entity_count = relation_count = 0
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            for doc in docs:
                graph = build_graph(doc)
                entity_count += len(graph.entity_edges)
                relation_count += len(graph.relation_edges)
                fh.write(dumps_canonical(graph_to_record(graph)))
                fh.write("\n")
    except _INPUT_ERRORS as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))
    click.echo(f"{len(docs)} documents, {entity_count} entity edges, "
               f"{relation_count} relation edges -> {out_path}")


@main.command("emit-prompts")
@click.argument("corpus_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_dir", type=click.Path(file_okay=False))
@click.option("--variant", "variants", multiple=True,
              default=[Variant.FULL.value], show_default=True,
              help="Prompt variant; repeatable.")
@click.option("--max-chars", default=100_000, show_default=True,
              help="Per-prompt character budget; over-budget documents fail.")
def cmd_emit_prompts(corpus_path: str, out_dir: str, variants: tuple[str, ...],
                     max_chars: int) -> None:
    """Write <doc_id>.<variant>.txt prompt files plus an index.jsonl."""
    docs = _read_corpus(corpus_path)
    chosen = [_variant(name) for name in variants]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    index_entries = []
    failures = 0
    for doc in docs:
        try:
            triples = extract_triples(build_graph(doc))
        except GraphStructureError as exc:
            _fail(EXIT_INPUT_ERROR, f"document {doc.id}: {exc}")
        for variant in chosen:
            try:
                prompt = render_prompt(doc, filter_triples(triples, variant),
                                       variant, max_chars)
            except PromptBudgetError as exc:
                click.echo(f"error: {exc}", err=True)
                failures += 1
                continue
            name = f"{doc.id}.{variant.value}.txt"
            with open(out / name, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(prompt.text)
            index_entries.append({
                "doc_id": doc.id, "variant": variant.value,
                "char_count": len(prompt.text),
                "triple_count": len(prompt.triples_used)})
    index_entries.sort(key=lambda e: (e["doc_id"], e["variant"]))
    with open(out / "index.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for entry in index_entries:
            fh.write(dumps_canonical(entry))
            fh.write("\n")
    click.echo(f"{len(index_entries)} prompts -> {out_dir}")
    if failures:
        _fail(EXIT_INPUT_ERROR, f"{failures} documents exceeded the prompt budget")


@main.command("synth")
@click.argument("out_path", type=click.Path(dir_okay=False))
@click.option("--n-docs", default=300, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--profile", default="balanced", show_default=True,
              type=click.Choice(sorted(PROFILES)))
def cmd_synth(out_path: str, n_docs: int, seed: int, profile: str) -> None:
    """Generate a deterministic synthetic labeled corpus."""
    try:
        docs = synth_generate(n_docs, seed, profile)
        write_corpus(docs, out_path)
    except _INPUT_ERRORS as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))
    click.echo(f"{len(docs)} documents -> {out_path}")


# Defaults live in ModelConfig/TrainConfig; a None flag means "not given",
# so config-file values are only overridden by flags the user typed.
_train_options = [
    click.option("--config", "config_file", type=click.Path(exists=True),
                 default=None, help="JSON config file; explicit flags override it."),
    click.option("--seed", default=None, type=int, help="[default: 0]"),
    click.option("--variant", default=None,
                 type=click.Choice([v.value for v in FUSION_VARIANTS]),
                 help="[default: Full]"),
    click.option("--epochs", default=None, type=int, help="[default: 20]"),
    click.option("--lr", default=None, type=float, help="[default: 0.001]"),
    click.option("--batch-size", default=None, type=int, help="[default: 32]"),
    click.option("--d-model", default=None, type=int, help="[default: 256]"),
    click.option("--n-heads", default=None, type=int, help="[default: 8]"),
    click.option("--n-layers", default=None, type=int, help="[default: 2]"),
    click.option("--dropout", default=None, type=float, help="[default: 0.1]"),
]


def _with_train_options(fn):
    for option in reversed(_train_options):
        fn = option(fn)
    return fn


@main.command("train")
@click.argument("corpus_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("checkpoint_path", type=click.Path(dir_okay=False))
@click.option("--metrics-log", type=click.Path(dir_okay=False), default=None,
              help="Per-epoch JSONL metrics log (default: <checkpoint>.metrics.jsonl)")
@_with_train_options
def cmd_train(corpus_path: str, checkpoint_path: str, metrics_log: str | None,
              config_file: str | None, seed, variant, epochs,
              lr, batch_size, d_model, n_heads,
              n_layers, dropout) -> None:
    """Train a fusion model and write a checkpoint plus metrics log."""
    model_config, train_config = _resolve_configs(
        config_file, seed, variant, epochs, lr, batch_size,
        d_model, n_heads, n_layers, dropout)
    docs = _read_corpus(corpus_path)
    if not docs:
        _fail(EXIT_INPUT_ERROR, f"{corpus_path}: empty corpus")
    with _exit_on_failure():
        model, metrics = train_model(docs, model_config, train_config)
    model.save(checkpoint_path)
    log_path = Path(metrics_log or f"{checkpoint_path}.metrics.jsonl")
    provenance = _provenance(model_config, train_config)
    with open(log_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_canonical({"run": provenance}))
        fh.write("\n")
        for record in metrics:
            fh.write(dumps_canonical(record.to_dict()))
            fh.write("\n")
    final = metrics[-1] if metrics else None
    click.echo(f"checkpoint -> {checkpoint_path} "
               f"(config {provenance['config_hash']}, "
               f"final loss {final.loss:.4f}, acc {final.accuracy:.4f})"
               if final else f"checkpoint -> {checkpoint_path}")


@main.command("eval")
@click.argument("checkpoint_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("corpus_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--report", "report_path", type=click.Path(dir_okay=False),
              required=True, help="Output report JSON path.")
@click.option("--variant", default=None,
              type=click.Choice([v.value for v in FUSION_VARIANTS]),
              help="[default: the checkpoint's training variant, or Full]")
@click.option("--expect-d-model", default=None, type=int,
              help="Fail unless the checkpoint was built with this d_model.")
def cmd_eval(checkpoint_path: str, corpus_path: str, report_path: str,
             variant: str | None, expect_d_model: int | None) -> None:
    """Evaluate a checkpoint on a labeled corpus and write an EvalReport."""
    try:
        model = FusionModel.load(checkpoint_path)
    except _INPUT_ERRORS as exc:
        _fail(EXIT_INPUT_ERROR, str(exc))
    if variant is None:
        variant = (model.variant or Variant.FULL).value
    elif model.variant not in (None, Variant(variant)):
        _fail(EXIT_INPUT_ERROR,
              f"{checkpoint_path}: checkpoint was trained on variant "
              f"{model.variant.value}, not {variant}")
    if expect_d_model is not None and model.config.d_model != expect_d_model:
        _fail(EXIT_INPUT_ERROR,
              f"checkpoint config mismatch: d_model is "
              f"{model.config.d_model}, expected {expect_d_model}")
    docs = _read_corpus(corpus_path)
    labeled = [d for d in docs if d.label is not None]
    if not labeled:
        _fail(EXIT_INPUT_ERROR, f"{corpus_path}: no labeled documents")
    with _exit_on_failure():
        preds = model.predict(labeled, variant=_variant(variant))
    report = per_label_report(preds, [d.label for d in labeled])
    _write_json(Path(report_path), {
        "model_config": model.config.to_dict(),
        "config_hash": config_hash(model.config),
        "variant": variant,
        "n_documents": len(labeled),
        "report": report.to_dict()})
    click.echo(f"accuracy {report.accuracy:.4f}, macro-F1 {report.macro_f1:.4f} "
               f"-> {report_path}")


@main.command("cv")
@click.argument("corpus_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--report", "report_path", type=click.Path(dir_okay=False),
              required=True)
@click.option("--k", default=5, show_default=True)
@click.option("--plain-folds", is_flag=True,
              help="Shuffled folds without label stratification.")
@_with_train_options
def cmd_cv(corpus_path: str, report_path: str, k: int, plain_folds: bool,
           config_file: str | None, seed, variant, epochs,
           lr, batch_size, d_model, n_heads,
           n_layers, dropout) -> None:
    """k-fold cross-validation; writes per-fold rows plus mean and std."""
    model_config, train_config = _resolve_configs(
        config_file, seed, variant, epochs, lr, batch_size,
        d_model, n_heads, n_layers, dropout)
    docs = _read_corpus(corpus_path)
    factory = lambda: FusionClassifier(model_config, train_config)
    with _exit_on_failure():
        result = run_cv(docs, k, factory, train_config.seed,
                        stratified=not plain_folds)
    payload = _provenance(model_config, train_config)
    payload.update({"k": k, "stratified": not plain_folds,
                    "result": result.to_dict()})
    _write_json(Path(report_path), payload)
    click.echo(f"mean accuracy {result.mean['accuracy']:.4f} "
               f"(std {result.std['accuracy']:.4f}) -> {report_path}")


@main.command("xdomain")
@click.argument("corpus_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--report", "report_path", type=click.Path(dir_okay=False),
              required=True)
@click.option("--train-tag", required=True)
@click.option("--test-tag", "test_tags", multiple=True, required=True)
@_with_train_options
def cmd_xdomain(corpus_path: str, report_path: str, train_tag: str,
                test_tags: tuple[str, ...], config_file: str | None, seed,
                variant, epochs, lr, batch_size,
                d_model, n_heads, n_layers,
                dropout) -> None:
    """Train on one domain tag, evaluate on others, report TextOnly deltas."""
    model_config, train_config = _resolve_configs(
        config_file, seed, variant, epochs, lr, batch_size,
        d_model, n_heads, n_layers, dropout)
    baseline_config = TrainConfig.from_dict(
        {**train_config.to_dict(), "variant": Variant.TEXT_ONLY.value})
    docs = _read_corpus(corpus_path)
    with _exit_on_failure():
        reports = cross_domain(
            docs, train_tag, list(test_tags),
            lambda: FusionClassifier(model_config, train_config),
            lambda: FusionClassifier(model_config, baseline_config))
    payload = _provenance(model_config, train_config)
    payload.update({"train_tag": train_tag,
                    "transfers": [r.to_dict() for r in reports]})
    _write_json(Path(report_path), payload)
    for r in reports:
        click.echo(f"{train_tag} -> {r.test_tag}: accuracy "
                   f"{r.report.accuracy:.4f} "
                   f"(TextOnly {r.baseline.accuracy:.4f}, "
                   f"delta {r.accuracy_delta:+.4f})")
    click.echo(f"report -> {report_path}")


if __name__ == "__main__":
    main()
