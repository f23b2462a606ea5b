"""Self-tests of the benchmark: span arithmetic, output checks, and a tiny
run of every workload, untraced and traced.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402
from cohgraph.fusion.config import ModelConfig  # noqa: E402
from cohgraph.variants import Variant  # noqa: E402

TINY_MODEL = ModelConfig(d_model=16, n_heads=2, n_layers=1, d_ffn=32,
                         n_token_buckets=64, n_entity_buckets=16, seed=0)


# -- span arithmetic ---------------------------------------------------------


def test_self_time_subtracts_children():
    # root 0..10 with children 1..3 and 4..8; the second has a child 5..6
    spans = [(0.0, 10.0, -1), (1.0, 3.0, 0), (4.0, 8.0, 0), (5.0, 6.0, 2)]
    assert tracing.span_self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [(0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 7.0, 0), (9.0, 12.0, 0)]
    # children cover 1..7 and 9..10 inside the parent
    assert tracing.span_self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_records_tree_and_restores_callables():
    tracer = tracing.Tracer()

    def leaf():
        return 1

    def outer():
        return traced_leaf() + traced_leaf()

    traced_leaf = tracer.span("leaf", leaf)
    assert tracer.span("outer", outer)() == 2
    assert [s[0] for s in tracer.spans] == ["outer", "leaf", "leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert {s[4] for s in tracer.spans} == {0}
    selfs = tracer.self_times()
    outer_span = tracer.spans[0]
    children = sum(s[2] - s[1] for s in tracer.spans[1:])
    assert selfs[0] == pytest.approx(outer_span[2] - outer_span[1] - children)
    assert [row[0] for row in tracer.tree()] == [("outer",), ("outer", "leaf")]

    originals = {p: p.owner.__dict__[p.attribute] for p in tracing.SPANS}
    with tracer.installed():
        assert all(p.owner.__dict__[p.attribute] is not originals[p]
                   for p in tracing.SPANS)
    assert all(p.owner.__dict__[p.attribute] is originals[p]
               for p in tracing.SPANS)


def test_busy_time_skips_spans_nested_in_a_same_name_span():
    tracer = tracing.Tracer()
    tracer.spans = [["graph.build", 0.0, 4.0, -1, 0],
                    ["graph.build", 1.0, 2.0, 0, 0],
                    ["model.forward", 5.0, 6.0, -1, 2]]
    totals = tracer.layer_totals()
    assert totals["graph.build"]["calls"] == 2
    assert totals["graph.build"]["busy_s"] == pytest.approx(4.0)
    assert totals["graph.build"]["self_s"] == pytest.approx(4.0)
    assert totals["model.forward"]["busy_s"] == pytest.approx(1.0)


# -- output checks -----------------------------------------------------------


def test_prompt_check_accepts_rendered_prompts_and_rejects_changes():
    from cohgraph import graph, prompts, synth
    doc = synth.synth_generate(1, 3, "balanced")[0]
    triples = prompts.extract_triples(graph.build_graph(doc))
    sentence_lines = [f"s_{s.index}: {s.text}" for s in doc.sentences]
    for variant in Variant:
        kept = prompts.filter_triples(triples, variant)
        text = prompts.render_prompt(doc, kept, variant).text
        expected = [t.render() for t in kept]
        assert workloads._prompt_ok(text, variant, sentence_lines, expected)
        assert not workloads._prompt_ok(text.rstrip("\n"), variant,
                                        sentence_lines, expected)
        assert not workloads._prompt_ok(text, variant, sentence_lines[:-1],
                                        expected)
        if expected:
            assert not workloads._prompt_ok(text, variant, sentence_lines,
                                            expected[1:])


def test_long_ladder_sizes_do_not_depend_on_the_seed():
    from cohgraph.fusion.model import FusionModel
    model = FusionModel.build(TINY_MODEL)
    targets = [48, 90, 148]
    sizes = [[len(model.prepare(doc).seq)
              for doc in workloads.long_documents(seed, targets, "t")]
             for seed in (1, 2)]
    assert sizes[0] == sizes[1]
    assert all(abs(n - t) <= 3 for n, t in zip(sizes[0], targets))


# -- tiny workloads ------------------------------------------------------------


class TinyShortCV(workloads.ShortCV):
    n_docs = 12
    folds = 2
    epochs = 1
    model_config = TINY_MODEL


class TinyLong(workloads.LongD256):
    latency_docs = 10
    train_targets = (50, 60)
    model_config = TINY_MODEL


class TinyPrompts(workloads.Prompts):
    n_docs = 30
    trace_rounds = 2


@pytest.fixture(params=[TinyShortCV, TinyLong, TinyPrompts],
                ids=["short-cv", "long-d256", "prompts"])
def tiny(request, tmp_path):
    return request.param(seed=5, work_dir=tmp_path)


def _args(trace: int):
    return run.parse_args(["--workload", "prompts", "--seconds", "0",
                           "--seed", "5", "--trace", str(trace)])


def test_tiny_untraced_run_reports_every_end_to_end_metric(tiny):
    tally = workloads.Tally()
    metrics = run.run_untraced(tiny, _args(0), tally)
    assert [name for name, _ in run.END_TO_END] == list(metrics)
    assert all(math.isfinite(m["value"]) and m["value"] > 0
               for m in metrics.values())
    assert tally.attempted > 0 and tally.failed == 0


def test_tiny_traced_run_reports_every_per_layer_metric(tiny, tmp_path,
                                                        monkeypatch):
    monkeypatch.setattr(run, "BENCH", tmp_path)
    tally = workloads.Tally()
    metrics = run.run_traced(tiny, _args(1), tally)
    assert [name for name, _, _ in tracing.PER_LAYER_METRICS] == list(metrics)
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    assert tally.attempted > 0 and tally.failed == 0
    if isinstance(tiny, workloads.Prompts):
        assert metrics["prompts.render.calls"]["value"] > 0
        assert metrics["model.forward.calls"]["value"] == 0
    else:
        assert metrics["model.forward.calls"]["value"] > 0
        assert metrics["prompts.render.calls"]["value"] == 0


def test_benchmark_json_lists_the_metrics_the_runs_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == list(tracing.PER_LAYER_METRICS))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_refuses_to_run_without_the_library_source(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "prompts", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
