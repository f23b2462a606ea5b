"""Linearization: positions, canonical order, losslessness, truncation."""

import numpy as np

from cohgraph.flat import ElementKind, FlatSequence, apply_variant, linearize
from cohgraph.graph import build_graph
from cohgraph.variants import Variant

from conftest import format_sequence, make_demo_document
from test_graph import random_document


def delinearize(seq: FlatSequence):
    """Independent reconstruction of graph content from element positions."""
    n_sentences = 0
    entity_keys = set()
    relation_keys = set()
    for el in seq.elements:
        if el.kind is ElementKind.SENTENCE:
            assert el.start == el.end == el.payload
            n_sentences += 1
        elif el.kind is ElementKind.ENTITY:
            assert el.start < el.end
            entity_keys.add((el.start, el.end, el.payload))
        else:
            assert el.end == el.start + 1
            relation_keys.add((el.start, el.payload))
    return n_sentences, entity_keys, relation_keys


def graph_content(graph):
    return (graph.n_sentences,
            {e.key for e in graph.entity_edges},
            {(e.i, e.sense) for e in graph.relation_edges})


def test_demo_sequence_layout():
    """Sentences first at (k, k); the (1,2) relation element sits at (1, 2)."""
    seq = linearize(build_graph(make_demo_document()))
    assert len(seq) == 4 + 3 + 3
    for k in range(4):
        el = seq.elements[k]
        assert el.kind is ElementKind.SENTENCE
        assert (el.payload, el.start, el.end) == (k + 1, k + 1, k + 1)
    # canonical edge order: (1,2) entity, (1,2) relation, (1,4) entity, ...
    kinds = [(el.kind, el.start, el.end) for el in seq.elements[4:]]
    assert kinds == [
        (ElementKind.ENTITY, 1, 2), (ElementKind.RELATION, 1, 2),
        (ElementKind.ENTITY, 1, 4), (ElementKind.RELATION, 2, 3),
        (ElementKind.ENTITY, 2, 4), (ElementKind.RELATION, 3, 4),
    ]


def test_edge_free_graph_yields_sentences_only():
    doc = random_document(np.random.default_rng(0), "r")
    graph = build_graph(doc)
    bare = type(graph)(doc_id=graph.doc_id, n_sentences=graph.n_sentences,
                       entity_edges=frozenset(), relation_edges=frozenset())
    seq = linearize(bare)
    assert all(el.kind is ElementKind.SENTENCE for el in seq.elements)
    assert len(seq) == graph.n_sentences


def test_roundtrip_on_random_graphs():
    """delinearize(linearize(g)) recovers the graph's structural content."""
    rng = np.random.default_rng(11)
    for trial in range(20):
        graph = build_graph(random_document(rng, f"rt-{trial}"))
        assert delinearize(linearize(graph)) == graph_content(graph)


def test_order_is_content_function():
    """Two builds of the same document linearize identically (set iteration
    order cannot leak through)."""
    doc = make_demo_document()
    assert linearize(build_graph(doc)) == linearize(build_graph(doc))


def test_element_count_formula():
    rng = np.random.default_rng(5)
    for trial in range(10):
        graph = build_graph(random_document(rng, f"cnt-{trial}"))
        seq = linearize(graph)
        assert len(seq) == (graph.n_sentences + len(graph.entity_edges)
                            + len(graph.relation_edges))


def test_truncation_drops_widest_entities_first():
    graph = build_graph(make_demo_document())  # spans: (1,2) (1,4) (2,4) entities
    seq = linearize(graph, max_elements=9)  # must drop one of ten elements
    entity_spans = [(el.start, el.end) for el in seq.elements
                    if el.kind is ElementKind.ENTITY]
    assert (1, 4) not in entity_spans  # widest entity goes first
    assert len(seq) == 9
    # relations are never dropped
    assert sum(el.kind is ElementKind.RELATION for el in seq.elements) == 3


def test_truncation_never_drops_sentences_or_relations():
    graph = build_graph(make_demo_document())
    seq = linearize(graph, max_elements=1)
    assert sum(el.kind is ElementKind.SENTENCE for el in seq.elements) == 4
    assert sum(el.kind is ElementKind.RELATION for el in seq.elements) == 3
    assert sum(el.kind is ElementKind.ENTITY for el in seq.elements) == 0


def test_variant_filtering():
    seq = linearize(build_graph(make_demo_document()))
    textonly = apply_variant(seq, Variant.TEXT_ONLY)
    assert all(el.kind is ElementKind.SENTENCE for el in textonly.elements)
    enty = apply_variant(seq, Variant.TEXT_ENTY)
    assert {el.kind for el in enty.elements} == {ElementKind.SENTENCE,
                                                 ElementKind.ENTITY}
    rel = apply_variant(seq, Variant.TEXT_REL)
    assert {el.kind for el in rel.elements} == {ElementKind.SENTENCE,
                                                ElementKind.RELATION}
    assert apply_variant(seq, Variant.FULL) == seq
    assert len(enty) + len(rel) == len(seq) + len(textonly)


def test_format_sequence_renders_rows():
    seq = linearize(build_graph(make_demo_document()))
    table = format_sequence(seq)
    lines = table.splitlines()
    assert len(lines) == len(seq)
    assert lines[0].startswith("sentence")
    assert any("john" in line for line in lines)
    assert any("(1, 2)" in line for line in lines)
    assert any("instantiation" in line for line in lines)
