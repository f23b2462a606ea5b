"""Triple extraction and prompt rendering, including the golden contract."""

import dataclasses
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from cohgraph import prompts
from cohgraph.flat import ElementKind, linearize
from cohgraph.graph import build_graph
from cohgraph.prompts import (PromptBudgetError, PromptStructureError, Triple,
                              extract_triples, filter_triples, render_prompt)
from cohgraph.variants import Variant

from conftest import make_demo_document, prompt_for
from test_graph import random_document

GOLDEN_DIR = Path(__file__).parent / "golden"

DEMO_TRIPLES = [
    (1, "entity", 2), (1, "reason", 2), (1, "entity", 4),
    (2, "instantiation", 3), (2, "entity", 4), (3, "result", 4),
]


class TestExtractTriples:
    def test_demo_document_order_and_content(self):
        """The four-sentence fixture yields exactly the six canonical triples,
        in reading order, with directional Cause renders."""
        triples = extract_triples(build_graph(make_demo_document()))
        assert [(t.i, t.label, t.j) for t in triples] == DEMO_TRIPLES

    def test_edgeless_graph_gives_no_triples(self):
        graph = build_graph(make_demo_document())
        bare = type(graph)(doc_id="x", n_sentences=3,
                           entity_edges=frozenset(),
                           relation_edges=frozenset())
        assert extract_triples(bare) == []

    def test_matches_two_hop_path_walk(self):
        """Direct edge enumeration equals an exhaustive walk over the
        bipartite sentence/edge incidence structure."""
        rng = np.random.default_rng(21)
        for trial in range(50):
            graph = build_graph(random_document(rng, f"walk-{trial}"))
            got = {(t.i, t.label, t.j)
                   for t in extract_triples(graph)}
            # oracle: sentence -> incident edge -> other sentence, keep i < j
            want = set()
            for s in range(1, graph.n_sentences + 1):
                for edge in graph.entity_edges:
                    if s == edge.i:
                        want.add((s, "entity", edge.j))
                for edge in graph.relation_edges:
                    if s == edge.i:
                        from cohgraph.prompts import relation_label
                        want.add((s, relation_label(edge), edge.j))
            assert got == want

    def test_triple_set_bijects_with_linearized_edges(self):
        """Triples and non-sentence flat elements describe the same edges."""
        rng = np.random.default_rng(33)
        for trial in range(10):
            graph = build_graph(random_document(rng, f"bij-{trial}"))
            triples = extract_triples(graph)
            seq = linearize(graph)
            edges = [el for el in seq.elements
                     if el.kind is not ElementKind.SENTENCE]
            assert len(triples) == len(edges)
            assert {(t.i, t.j) for t in triples} == \
                   {(el.start, el.end) for el in edges}

    def test_variant_filters_partition(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            graph = build_graph(random_document(rng, f"part-{trial}"))
            full = extract_triples(graph)
            enty = filter_triples(full, Variant.TEXT_ENTY)
            rel = filter_triples(full, Variant.TEXT_REL)
            assert sorted(map(str, enty + rel)) == sorted(map(str, full))
            assert filter_triples(full, Variant.TEXT_ONLY) == []
            assert filter_triples(full, Variant.FULL) == full

    def test_i_less_than_j_enforced(self):
        with pytest.raises(PromptStructureError):
            Triple(3, "entity", 3)
        with pytest.raises(PromptStructureError):
            Triple(4, "cause", 2)


class TestRenderPrompt:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_golden_files(self, variant):
        """Rendered prompts are byte-identical to the repository goldens."""
        doc = make_demo_document()
        prompt = prompt_for(doc, build_graph(doc), variant)
        golden = (GOLDEN_DIR / f"{doc.id}.{variant.value}.txt").read_bytes()
        assert prompt.text.encode("utf-8") == golden

    def test_textonly_has_no_triple_section(self):
        doc = make_demo_document()
        prompt = prompt_for(doc, build_graph(doc), Variant.TEXT_ONLY)
        assert "Connections:" not in prompt.text
        assert "(s_" not in prompt.text.replace("(s_i", "").replace("(s_j", "")
        assert prompt.triples_used == ()

    def test_rendering_is_deterministic(self):
        doc = make_demo_document()
        graph = build_graph(doc)
        a = prompt_for(doc, graph, Variant.FULL)
        b = prompt_for(doc, graph, Variant.FULL)
        assert a.text == b.text

    def test_explanation_variant_appends_request(self):
        doc = make_demo_document()
        graph = build_graph(doc)
        plain = prompt_for(doc, graph, Variant.FULL)
        explained = prompt_for(doc, graph, Variant.FULL_WITH_EXPLANATION)
        assert explained.text.startswith(plain.text[:-1])
        assert "brief explanation" in explained.text

    def test_label_query_present(self):
        doc = make_demo_document()
        text = prompt_for(doc, build_graph(doc), Variant.FULL).text
        assert "low, medium, or high" in text
        for k in range(1, 5):
            assert f"s_{k}: " in text

    def test_out_of_range_triple_rejected(self):
        doc = make_demo_document()
        with pytest.raises(PromptStructureError):
            render_prompt(doc, [Triple(1, "entity", 9)], Variant.FULL)

    def test_variant_filter_violation_rejected(self):
        doc = make_demo_document()
        with pytest.raises(PromptStructureError):
            render_prompt(doc, [Triple(1, "entity", 2)], Variant.TEXT_REL)
        with pytest.raises(PromptStructureError):
            render_prompt(doc, [Triple(1, "reason", 2)], Variant.TEXT_ONLY)

    def test_budget_overflow_raises_loudly(self):
        doc = make_demo_document()
        graph = build_graph(doc)
        with pytest.raises(PromptBudgetError) as err:
            prompt_for(doc, graph, Variant.FULL, max_chars=100)
        assert err.value.doc_id == doc.id
        assert err.value.budget == 100


class TestSharedTriples:
    def test_documents_share_a_triple_that_is_a_fresh_one(self):
        """Two reads of one document hold the same triple objects, and each
        equals, hashes and reprs as a triple built now, renders the same
        text and stays frozen."""
        first = extract_triples(build_graph(make_demo_document()))
        second = extract_triples(build_graph(make_demo_document()))
        assert all(a is b for a, b in zip(first, second))
        for t in first:
            fresh = Triple(t.i, t.label, t.j)
            assert fresh is not t
            assert (t == fresh and hash(t) == hash(fresh)
                    and repr(t) == repr(fresh) and t.text == fresh.text)
            with pytest.raises(dataclasses.FrozenInstanceError):
                t.label = "entity"

    def test_a_miss_runs_the_constructor_checks(self):
        with pytest.raises(PromptStructureError, match="requires i < j"):
            prompts._shared_triple(3, "entity", 3)
        # an int and an equal bool are kept apart, as a fresh triple would
        assert prompts._shared_triple(True, "entity", 2).text == \
            "(s_True, entity, s_2)"

    def test_the_table_stays_within_its_bound(self):
        table = prompts._shared_triple
        bound = table.cache_info().maxsize
        assert bound == 4096
        for j in range(2, bound + 200):
            table(1, "entity", j)
        assert table.cache_info().currsize == bound


# the labels each variant admits in a prompt's connections
ADMITTED = {
    Variant.TEXT_ONLY: (),
    Variant.TEXT_ENTY: ("entity",),
    Variant.TEXT_REL: ("reason",),
    Variant.FULL: ("entity", "reason"),
    Variant.FULL_WITH_EXPLANATION: ("entity", "reason"),
}


@pytest.mark.parametrize("variant", list(Variant))
def test_each_render_error_fires_under_every_variant(variant):
    """Out-of-range and disallowed triples and an over-budget prompt raise
    under every variant with the same messages, the first bad triple
    first."""
    doc = make_demo_document()
    for label in ("entity", "reason"):
        with pytest.raises(PromptStructureError) as err:
            render_prompt(doc, [Triple(1, label, 9)], variant)
        assert str(err.value) == (f"triple (s_1, {label}, s_9) references "
                                  f"sentences outside [1, 4]")
        triples = [Triple(1, label, 2), Triple(2, "entity", 9)]
        with pytest.raises(PromptStructureError) as err:
            render_prompt(doc, triples, variant)
        assert str(err.value) == (
            "triple (s_2, entity, s_9) references sentences outside [1, 4]"
            if label in ADMITTED[variant] else
            f"triple (s_1, {label}, s_2) is not allowed under variant "
            f"{variant.value}")
    length = len(render_prompt(doc, [], variant).text)
    with pytest.raises(PromptBudgetError) as err:
        render_prompt(doc, [], variant, max_chars=100)
    assert str(err.value) == (f"prompt for document 'demo-0001' is {length} "
                              f"characters, over the 100-character budget")


def _sentence_lines(text: str) -> list[str]:
    lines = text.split("\n")
    start = lines.index("Sentences:") + 1
    return lines[start:lines.index("", start)]


def test_interleaved_renders_show_each_documents_sentences():
    """Rendering two documents' variants in turn gives each prompt its own
    document's sentences and the text of rendering that document's
    variants together."""
    docs = [make_demo_document(),
            random_document(np.random.default_rng(8), "other")]
    together = {doc.id: [prompt_for(doc, build_graph(doc), v).text
                         for v in Variant] for doc in docs}
    for doc in docs:
        for text in together[doc.id]:
            assert _sentence_lines(text) == [f"s_{s.index}: {s.text}"
                                             for s in doc.sentences]
    for k, variant in reversed(list(enumerate(Variant))):
        for doc in docs:
            assert prompt_for(doc, build_graph(doc), variant).text == \
                together[doc.id][k]


def test_a_render_inside_another_leaves_each_its_own_sentences():
    """Document b rendered while a's sentences are being formatted, where a
    thread switch could run it, leaves every later render of either
    document with its own sentences."""
    a = make_demo_document()
    b = random_document(np.random.default_rng(8), "other")
    want = {doc.id: prompt_for(doc, build_graph(doc), Variant.FULL).text
            for doc in (a, b)}
    inner = []

    class SwitchingSentences(tuple):
        def __iter__(self):
            items = super().__iter__()
            yield next(items)
            inner.append(prompt_for(b, build_graph(b), Variant.FULL).text)
            yield from items

    switching = dataclasses.replace(a, sentences=SwitchingSentences(a.sentences))
    a_triples = extract_triples(build_graph(a))
    for _ in range(2):
        assert render_prompt(switching, a_triples, Variant.FULL).text == \
            want[a.id]
        assert prompt_for(b, build_graph(b), Variant.FULL).text == want[b.id]
    assert inner == [want[b.id]] * 2


def test_threads_rendering_different_documents_keep_their_own_sentences():
    """Four threads, each rendering its own document's variants with a
    short switch interval, get that document's prompts every time."""
    rng = np.random.default_rng(9)
    docs = [make_demo_document()] + [random_document(rng, f"thread-{k}")
                                     for k in range(3)]
    want = {doc.id: [prompt_for(doc, build_graph(doc), v).text
                     for v in Variant] for doc in docs}
    mixed = []
    start = threading.Barrier(len(docs))

    def render_many(doc):
        graph = build_graph(doc)
        start.wait()
        for _ in range(200):
            for k, variant in enumerate(Variant):
                if prompt_for(doc, graph, variant).text != want[doc.id][k]:
                    mixed.append((doc.id, variant))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=render_many, args=(doc,))
                   for doc in docs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mixed == []
