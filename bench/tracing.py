"""Spans around the calls into each cohgraph layer, recorded from outside.

A traced run replaces the public callables listed in SPANS with wrappers, at
the place where their callers look them up (a module global or a class
attribute), and restores the originals afterwards. No source file changes.
Each wrapper records one span: name, start, end, parent span and the id of
the operation it belongs to (the index of its outermost enclosing span).
Spans stay in memory and are written out when the run ends.

Self time of a span is its duration minus the part of it that its child
spans cover; a layer's busy time is the summed duration of its outermost
spans. Counts are taken at the same boundaries by hooks that inspect a
call's arguments and result; a hook runs inside its own `trace.count` span,
so the cost of counting shows as tracer time instead of inflating the self
time of the caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cohgraph import corpus, graph, harness, prompts, synth
from cohgraph.fusion import model as fusion_model
from cohgraph.fusion import optim as fusion_optim
from cohgraph.fusion.encoder import HashBucketSentenceEncoder

# cohgraph.fusion re-exports the train() function under the submodule's name
fusion_train = importlib.import_module("cohgraph.fusion.train")


@dataclass(frozen=True)
class SpanPoint:
    """One traced callable and where its callers look it up."""

    name: str
    owner: object       # module or class whose attribute is replaced
    attribute: str


SPANS = (
    SpanPoint("synth.generate", synth, "synth_generate"),
    SpanPoint("corpus.read", corpus, "read_corpus"),
    SpanPoint("graph.build", graph, "build_graph"),
    SpanPoint("graph.build", fusion_model, "build_graph"),
    SpanPoint("flat.linearize", fusion_model, "linearize"),
    SpanPoint("flat.apply_variant", fusion_model, "apply_variant"),
    SpanPoint("prompts.extract", prompts, "extract_triples"),
    SpanPoint("prompts.render", prompts, "render_prompt"),
    SpanPoint("encoder.prepare", HashBucketSentenceEncoder, "prepare"),
    SpanPoint("masking.visible_matrix", fusion_model, "visible_matrix"),
    SpanPoint("positions.distance_indices", fusion_model, "distance_indices"),
    SpanPoint("model.prepare", fusion_model.FusionModel, "prepare"),
    SpanPoint("model.forward", fusion_model.FusionModel, "forward_context"),
    SpanPoint("model.backward", fusion_model.FusionModel,
              "backward_from_logits"),
    SpanPoint("model.loss_and_grad", fusion_model.FusionModel,
              "loss_and_grad_contexts"),
    SpanPoint("model.predict", fusion_model.FusionModel, "predict"),
    SpanPoint("optim.step", fusion_optim.AdamW, "step"),
    SpanPoint("train.fit", fusion_train, "train"),
    SpanPoint("harness.run_cv", harness, "run_cv"),
    SpanPoint("metrics.report", harness, "per_label_report"),
)

SPAN_NAMES = tuple(dict.fromkeys(point.name for point in SPANS))

# Forward-pass peak memory is probed once per element-count bucket.
PEAK_BUCKETS = (("n_le_32", 0, 32), ("n_33_64", 33, 64),
                ("n_65_128", 65, 128), ("n_gt_128", 129, 1 << 30))

COUNT_SPAN = "trace.count"

# (name, unit, better) of every metric a traced run reports, in order.
PER_LAYER_METRICS = tuple(
    [(f"{name}.{field}", unit, "lower")
     for name in SPAN_NAMES
     for field, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))]
    + [("flat.elements_mean", "count", "lower"),
       ("flat.elements_max", "count", "lower"),
       ("flat.entity_dropped", "count", "lower"),
       ("prompts.chars", "count", "lower"),
       ("positions.unique_tuple_ratio", "ratio", "lower"),
       ("positions.clipped_fraction", "ratio", "lower")]
    + [(f"model.forward.peak_mib.{bucket}", "MiB", "lower")
       for bucket, _, _ in PEAK_BUCKETS]
    + [("trace.overhead_s", "s", "lower"),
       ("trace.overhead_share", "ratio", "lower")])


class Tracer:
    """In-memory span recorder with call-site wrappers."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index, operation id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.sequence_lengths: list[int] = []
        self._paused = False

    @contextmanager
    def paused(self):
        """Calls made inside run unrecorded (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap fn so every call records a span called name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            # a span outside any other is one operation; its callees share its id
            op = self.spans[parent][4] if parent >= 0 else index
            record = [name, 0.0, 0.0, parent, op]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            hook = _HOOKS.get(name)
            if hook is not None:
                self.span(COUNT_SPAN, hook)(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every SPANS callable with its wrapper; restore on exit."""
        originals = []
        try:
            for point in SPANS:
                original = point.owner.__dict__[point.attribute]
                originals.append((point, original))
                setattr(point.owner, point.attribute,
                        self.span(point.name, original))
            yield self
        finally:
            for point, original in reversed(originals):
                setattr(point.owner, point.attribute, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        return span_self_times([(s[1], s[2], s[3]) for s in self.spans])

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, busy_s (outermost spans only) and self_s per span name."""
        selfs = self.self_times()
        totals = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
                  for name in (*SPAN_NAMES, COUNT_SPAN)}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += selfs[index]
            if not _has_ancestor_named(self.spans, parent, name):
                entry["busy_s"] += end - start
        return totals

    def tree(self) -> list[tuple[tuple[str, ...], int, float, float]]:
        """(path, calls, total_s, self_s) aggregated by span path, in
        depth-first order of first appearance."""
        selfs = self.self_times()
        paths: list[tuple[str, ...]] = []
        rows: dict[tuple[str, ...], list] = {}
        children: dict[tuple[str, ...], list] = defaultdict(list)
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            path = (paths[parent] if parent >= 0 else ()) + (name,)
            paths.append(path)
            if path not in rows:
                rows[path] = [0, 0.0, 0.0]
                children[path[:-1]].append(path)
            row = rows[path]
            row[0] += 1
            row[1] += end - start
            row[2] += selfs[index]
        out = []

        def visit(prefix: tuple[str, ...]) -> None:
            for path in children[prefix]:
                out.append((path, *rows[path]))
                visit(path)

        visit(())
        return out

    def write(self, path: Path, run_id: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": run_id,
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


def span_self_times(spans: list[tuple[float, float, int]]) -> list[float]:
    """Self time of each (start, end, parent) span: its duration minus the
    union of the intervals its direct children cover inside it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _has_ancestor_named(spans: list[list], parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


# -- count hooks: (tracer, call args, result) --------------------------------


def _count_linearize(tracer: Tracer, args, result) -> None:
    coherence_graph = args[0]
    offered = (coherence_graph.n_sentences + len(coherence_graph.entity_edges)
               + len(coherence_graph.relation_edges))
    tracer.counts["flat.entity_dropped"] += offered - len(result)


def _count_apply_variant(tracer: Tracer, args, result) -> None:
    tracer.sequence_lengths.append(len(result))


def _count_distance_indices(tracer: Tracer, args, result) -> None:
    seq, max_distance = args[0], args[1]
    n = len(seq)
    width = 2 * max_distance + 1
    flat_idx = result.reshape(n * n, 4)
    keys = ((flat_idx[:, 0] * width + flat_idx[:, 1]) * width
            + flat_idx[:, 2]) * width + flat_idx[:, 3]
    tracer.counts["positions.unique_tuples"] += len(np.unique(keys))
    tracer.counts["positions.pairs"] += n * n
    starts = np.array([el.start for el in seq.elements])
    ends = np.array([el.end for el in seq.elements])
    clipped = 0
    for a in (starts, ends):
        for b in (starts, ends):
            clipped += int((np.abs(a[:, None] - b[None, :]) > max_distance).sum())
    tracer.counts["positions.clipped"] += clipped


def _count_render(tracer: Tracer, args, result) -> None:
    tracer.counts["prompts.chars"] += len(result.text)


_HOOKS = {
    "flat.linearize": _count_linearize,
    "flat.apply_variant": _count_apply_variant,
    "positions.distance_indices": _count_distance_indices,
    "prompts.render": _count_render,
}


def forward_peak_mib(model, contexts) -> dict[str, float]:
    """tracemalloc peak of one forward pass for the longest context in each
    element-count bucket; 0.0 for a bucket the workload has no document in."""
    out = {}
    for bucket, low, high in PEAK_BUCKETS:
        inside = [ctx for ctx in contexts if low <= len(ctx.seq) <= high]
        if not inside:
            out[bucket] = 0.0
            continue
        ctx = max(inside, key=lambda c: len(c.seq))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            model.forward_context(ctx)
            out[bucket] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
    return out


def per_layer_metrics(tracer: Tracer, peaks: dict[str, float],
                      overhead_s: float, untraced_s: float) -> dict[str, float]:
    """Every PER_LAYER_METRICS value from a finished traced run."""
    values: dict[str, float] = {}
    for name, entry in tracer.layer_totals().items():
        if name == COUNT_SPAN:
            continue
        for field, value in entry.items():
            values[f"{name}.{field}"] = value
    lengths = tracer.sequence_lengths
    counts = tracer.counts
    values["flat.elements_mean"] = float(np.mean(lengths)) if lengths else 0.0
    values["flat.elements_max"] = max(lengths, default=0)
    values["flat.entity_dropped"] = counts["flat.entity_dropped"]
    values["prompts.chars"] = counts["prompts.chars"]
    pairs = counts["positions.pairs"]
    values["positions.unique_tuple_ratio"] = (
        counts["positions.unique_tuples"] / pairs if pairs else 0.0)
    values["positions.clipped_fraction"] = (
        counts["positions.clipped"] / (4 * pairs) if pairs else 0.0)
    for bucket, _, _ in PEAK_BUCKETS:
        values[f"model.forward.peak_mib.{bucket}"] = peaks.get(bucket, 0.0)
    values["trace.overhead_s"] = overhead_s
    values["trace.overhead_share"] = overhead_s / untraced_s
    return values


def format_tree(tracer: Tracer) -> list[str]:
    lines = [f"{'span':<44} {'calls':>8} {'total_s':>10} {'self_s':>10}"]
    for path, calls, total, self_s in tracer.tree():
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(f"{label:<44} {calls:>8} {total:>10.4f} {self_s:>10.4f}")
    return lines
