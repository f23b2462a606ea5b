"""Command-line front door.

Subcommands: build-graph, emit-prompts, train, eval, cv, xdomain, synth.
Exit codes: 0 success, 1 input error (a malformed command line, a bad
corpus, config or checkpoint, an unreadable or unwritable file), 2 numerical
failure, each through one funnel as one message line, never a traceback.
Each command makes its outputs' directories and tries writing there before
it computes. Logs go to stderr, data to files or stdout. Every output
artifact is stamped with the resolved configuration and its hash, and every
command is idempotent for identical inputs and seeds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
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
_NUMERICAL_ERRORS = (TrainingDivergedError, NumericalError)


class _FrontDoor(click.Group):
    """The one place where a failure becomes an exit code. Click parses the
    group's options in make_context; invoke parses the subcommand's and runs
    its body, file writes included. A malformed command line keeps click's
    usage message and exits 1, every other failure prints one line. A bare
    `cohgraph` prints its help and exits 0 on every click version."""

    def parse_args(self, ctx, args):
        if not args and not ctx.resilient_parsing:
            click.echo(ctx.get_help(), color=ctx.color)
            ctx.exit()
        return super().parse_args(ctx, args)

    def make_context(self, *args, **kwargs):
        return self._funnel(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return self._funnel(super().invoke, ctx)

    @staticmethod
    def _funnel(call, *args, **kwargs):
        try:
            return call(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = EXIT_INPUT_ERROR
            raise
        except _NUMERICAL_ERRORS + _INPUT_ERRORS + (MemoryError,) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL_ERROR if isinstance(exc, _NUMERICAL_ERRORS)
                     else EXIT_INPUT_ERROR)


def _read_corpus(path: str) -> list[Document]:
    try:
        return read_corpus(path)
    except _INPUT_ERRORS as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _output(path: str | Path) -> Path:
    """path, its directories made and its writability tried now, before any
    computation (appending nothing to an existing file leaves it as it is)."""
    out = Path(path)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        if out.exists():
            open(out, "a").close()
        else:
            tempfile.TemporaryFile(dir=out.parent).close()
    except OSError as exc:
        raise OSError(f"{out}: cannot be written: "
                      f"{exc.strerror or exc}") from exc
    return out


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path}: expected a JSON object")
    for key in data:
        if key not in ("model", "train"):
            raise ValueError(f"config file {path}: unknown key {key!r}; "
                             f"expected \"model\" or \"train\"")
    return data


def _resolve_configs(config_file: str | None, seed: int | None,
                     variant: str | None, epochs: int | None,
                     lr: float | None, batch_size: int | None,
                     d_model: int | None, n_heads: int | None,
                     n_layers: int | None,
                     dropout: float | None) -> tuple[ModelConfig, TrainConfig]:
    """Explicit flags win over config-file values, which win over defaults."""
    file_cfg = _load_config_file(config_file)
    sections = {key: file_cfg.get(key, {}) for key in ("model", "train")}
    for key, section in sections.items():
        if not isinstance(section, dict):
            raise ValueError(f"config file {config_file}: \"{key}\" is not "
                             f"a JSON object")
    model_kwargs, train_kwargs = dict(sections["model"]), dict(sections["train"])
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
        raise ValueError(f"invalid configuration: {exc}") from exc
    return model_config, train_config


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))
        fh.write("\n")


def _provenance(model_config: ModelConfig, train_config: TrainConfig) -> dict:
    return {"model_config": model_config.to_dict(),
            "train_config": train_config.to_dict(),
            "config_hash": config_hash(model_config, train_config)}


@click.group(cls=_FrontDoor)
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
    with open(_output(out_path), "w", encoding="utf-8", newline="\n") as fh:
        for doc in docs:
            graph = build_graph(doc)
            entity_count += len(graph.entity_edges)
            relation_count += len(graph.relation_edges)
            fh.write(dumps_canonical(graph_to_record(graph)))
            fh.write("\n")
    click.echo(f"{len(docs)} documents, {entity_count} entity edges, "
               f"{relation_count} relation edges -> {out_path}")


def _check_prompt_names(docs: list[Document]) -> None:
    """Refuse, before anything is written, a document id that is not one
    safe file-name component (empty, . or .., holding a /, \\ or NUL, or
    absolute): prompt files are named after the ids, which the corpus
    reader has checked are unique."""
    for doc in docs:
        if (doc.id in ("", ".", "..") or any(c in doc.id for c in "/\\\0")
                or os.path.isabs(doc.id)):
            raise ValueError(f"document id {doc.id!r} cannot name a prompt "
                             f"file: it must be one path component")


@main.command("emit-prompts")
@click.argument("corpus_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_dir", type=click.Path(file_okay=False))
@click.option("--variant", "variants", multiple=True,
              type=click.Choice([v.value for v in Variant]),
              default=[Variant.FULL.value], show_default=True,
              help="Prompt variant; repeatable.")
@click.option("--max-chars", default=100_000, show_default=True,
              help="Per-prompt character budget; over-budget documents fail.")
def cmd_emit_prompts(corpus_path: str, out_dir: str, variants: tuple[str, ...],
                     max_chars: int) -> None:
    """Write <doc_id>.<variant>.txt prompt files plus an index.jsonl."""
    docs = _read_corpus(corpus_path)
    _check_prompt_names(docs)
    # a repeated --variant names one prompt; dict keys keep the first order
    chosen = [Variant(name) for name in dict.fromkeys(variants)]
    out = _output(Path(out_dir) / "index.jsonl").parent
    index_entries = []
    failures = 0
    for doc in docs:
        try:
            triples = extract_triples(build_graph(doc))
        except GraphStructureError as exc:
            raise GraphStructureError(f"document {doc.id}: {exc}") from exc
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
        raise ValueError(f"{failures} documents exceeded the prompt budget")


@main.command("synth")
@click.argument("out_path", type=click.Path(dir_okay=False))
@click.option("--n-docs", default=300, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--profile", default="balanced", show_default=True,
              type=click.Choice(sorted(PROFILES)))
def cmd_synth(out_path: str, n_docs: int, seed: int, profile: str) -> None:
    """Generate a deterministic synthetic labeled corpus."""
    docs = synth_generate(n_docs, seed, profile)
    write_corpus(docs, _output(out_path))
    click.echo(f"{len(docs)} documents -> {out_path}")


# Defaults live in ModelConfig/TrainConfig; a None flag means "not given", so
# only typed flags override config-file values (see _resolve_configs).
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
              **options) -> None:
    """Train a fusion model and write a checkpoint plus metrics log."""
    model_config, train_config = _resolve_configs(**options)
    docs = _read_corpus(corpus_path)
    if not docs:
        raise ValueError(f"{corpus_path}: empty corpus")
    checkpoint = _output(checkpoint_path)
    log_path = _output(metrics_log or f"{checkpoint_path}.metrics.jsonl")
    model, metrics = train_model(docs, model_config, train_config)
    model.save(checkpoint)
    provenance = _provenance(model_config, train_config)
    with open(log_path, "w", encoding="utf-8", newline="\n") as fh:
        for record in [{"run": provenance}, *(m.to_dict() for m in metrics)]:
            fh.write(dumps_canonical(record))
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
    model = FusionModel.load(checkpoint_path)
    if variant is None:
        variant = (model.variant or Variant.FULL).value
    elif model.variant not in (None, Variant(variant)):
        raise ValueError(f"{checkpoint_path}: checkpoint was trained on "
                         f"variant {model.variant.value}, not {variant}")
    if expect_d_model is not None and model.config.d_model != expect_d_model:
        raise ValueError(f"checkpoint config mismatch: d_model is "
                         f"{model.config.d_model}, expected {expect_d_model}")
    docs = _read_corpus(corpus_path)
    labeled = [d for d in docs if d.label is not None]
    if not labeled:
        raise ValueError(f"{corpus_path}: no labeled documents")
    report_file = _output(report_path)
    preds = model.predict(labeled, variant=Variant(variant))
    report = per_label_report(preds, [d.label for d in labeled])
    _write_json(report_file, {
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
           **options) -> None:
    """k-fold cross-validation; writes per-fold rows plus mean and std."""
    model_config, train_config = _resolve_configs(**options)
    docs = _read_corpus(corpus_path)
    report_file = _output(report_path)
    factory = lambda: FusionClassifier(model_config, train_config)
    result = run_cv(docs, k, factory, train_config.seed,
                    stratified=not plain_folds)
    payload = _provenance(model_config, train_config)
    payload.update({"k": k, "stratified": not plain_folds,
                    "result": result.to_dict()})
    _write_json(report_file, payload)
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
                test_tags: tuple[str, ...], **options) -> None:
    """Train on one domain tag, evaluate on others, report TextOnly deltas."""
    model_config, train_config = _resolve_configs(**options)
    baseline_config = dataclasses.replace(train_config,
                                          variant=Variant.TEXT_ONLY)
    docs = _read_corpus(corpus_path)
    report_file = _output(report_path)
    reports = cross_domain(
        docs, train_tag, list(test_tags),
        lambda: FusionClassifier(model_config, train_config),
        lambda: FusionClassifier(model_config, baseline_config))
    payload = _provenance(model_config, train_config)
    payload.update({"train_tag": train_tag,
                    "transfers": [r.to_dict() for r in reports]})
    _write_json(report_file, payload)
    for r in reports:
        click.echo(f"{train_tag} -> {r.test_tag}: accuracy "
                   f"{r.report.accuracy:.4f} "
                   f"(TextOnly {r.baseline.accuracy:.4f}, "
                   f"delta {r.accuracy_delta:+.4f})")
    click.echo(f"report -> {report_path}")


if __name__ == "__main__":
    main()
