"""Triple extraction and prompt rendering, including the golden contract."""

from pathlib import Path

import numpy as np
import pytest

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
