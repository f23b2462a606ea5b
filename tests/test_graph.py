"""Graph construction against brute-force oracles."""

import dataclasses

import numpy as np
import pytest

from cohgraph.documents import (AnnotationSet, Document, Mention,
                                NounAnnotation, RelationAnnotation, Sentence,
                                TokenSpan)
from cohgraph import graph as graph_module
from cohgraph.graph import (EdgeSource, EntityEdge, GraphStructureError,
                            RelationEdge, build_graph, extract_entity_edges,
                            extract_relation_edges, graph_to_record)
from cohgraph.relations import CauseDirection, RelationKind, load_registry

from conftest import make_demo_document


def random_document(rng: np.random.Generator, doc_id: str) -> Document:
    """Random sentences with planted shared nouns, corefs, and relations."""
    registry = load_registry()
    n = int(rng.integers(2, 7))
    sentences = []
    nouns = []
    for k in range(1, n + 1):
        n_tok = int(rng.integers(3, 8))
        tokens = [f"tok{int(rng.integers(30))}" for _ in range(n_tok)]
        sentences.append(Sentence(index=k, text=" ".join(tokens),
                                  tokens=tuple(tokens)))
        for pos in range(n_tok):
            if rng.random() < 0.4:
                # noun surfaces from a small pool to force shared surfaces
                nouns.append(NounAnnotation(
                    k, TokenSpan(pos, pos + 1), f"Noun{int(rng.integers(8))}"))
    corefs = []
    for _ in range(int(rng.integers(0, 4))):
        i, j = rng.integers(1, n + 1, size=2)
        si, sj = sentences[int(i) - 1], sentences[int(j) - 1]
        corefs.append((Mention(int(i), TokenSpan(0, 1)),
                       Mention(int(j), TokenSpan(0, min(2, len(sj.tokens))))))
    relations = []
    for k in range(1, n):
        if rng.random() < 0.7:
            kind = RelationKind.EXPLICIT if rng.random() < 0.5 else RelationKind.IMPLICIT
            name = registry.names(kind)[int(rng.integers(15))]
            relations.append(RelationAnnotation(k, registry.lookup(name, kind)))
    return Document(id=doc_id, sentences=tuple(sentences), label=None,
                    annotations=AnnotationSet(tuple(nouns), tuple(corefs),
                                              tuple(relations))).validate()


def oracle_entity_edges(doc: Document) -> set[tuple[int, int, str]]:
    """Exhaustive pair comparison over case-folded noun surface sets, plus
    cross-sentence coref links."""
    n = len(doc.sentences)
    per_sentence = {k: set() for k in range(1, n + 1)}
    for noun in doc.annotations.nouns:
        per_sentence[noun.sentence_index].add(noun.surface.casefold())
    keys = set()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for shared in per_sentence[i] & per_sentence[j]:
                keys.add((i, j, shared))
    for a, b in doc.annotations.coref_links:
        if a.sentence_index == b.sentence_index:
            continue
        first, second = sorted((a, b), key=lambda m: (m.sentence_index,
                                                      m.span.start))
        keys.add((first.sentence_index, second.sentence_index,
                  doc.mention_text(first)))
    return keys


class TestEntityEdges:
    def test_demo_document_pairs(self):
        """The demo fixture links exactly the pairs (1,2), (1,4), (2,4)."""
        edges = extract_entity_edges(make_demo_document())
        assert {(e.i, e.j) for e in edges} == {(1, 2), (1, 4), (2, 4)}
        assert {e.surface for e in edges} == {"john"}

    def test_no_shared_nouns_gives_empty_set(self):
        doc = Document(
            id="plain",
            sentences=(Sentence(1, "a b", ("a", "b")),
                       Sentence(2, "c d", ("c", "d"))),
            annotations=AnnotationSet(
                nouns=(NounAnnotation(1, TokenSpan(0, 1), "a"),
                       NounAnnotation(2, TokenSpan(0, 1), "c")))).validate()
        assert extract_entity_edges(doc) == frozenset()

    def test_matches_bruteforce_on_random_documents(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            doc = random_document(rng, f"rand-{trial}")
            got = {e.key for e in extract_entity_edges(doc)}
            assert got == oracle_entity_edges(doc), doc.id

    def test_coref_wins_key_collision(self):
        doc = Document(
            id="collide",
            sentences=(Sentence(1, "mayor speaks", ("mayor", "speaks")),
                       Sentence(2, "mayor nods", ("mayor", "nods"))),
            annotations=AnnotationSet(
                nouns=(NounAnnotation(1, TokenSpan(0, 1), "mayor"),
                       NounAnnotation(2, TokenSpan(0, 1), "mayor")),
                coref_links=((Mention(1, TokenSpan(0, 1)),
                              Mention(2, TokenSpan(0, 1))),))).validate()
        (edge,) = extract_entity_edges(doc)
        assert edge.key == (1, 2, "mayor")
        assert edge.source is EdgeSource.COREF

    def test_bad_sentence_reference_is_structural_error(self):
        doc = Document(
            id="bad",
            sentences=(Sentence(1, "a", ("a",)), Sentence(2, "b", ("b",))),
            annotations=AnnotationSet(
                nouns=(NounAnnotation(5, TokenSpan(0, 1), "x"),)))
        with pytest.raises(GraphStructureError):
            extract_entity_edges(doc)


class TestRelationEdges:
    def test_demo_document_relations(self):
        edges = extract_relation_edges(make_demo_document())
        by_pair = {e.i: e.sense.name for e in edges}
        assert by_pair == {1: "Cause", 2: "Instantiation", 3: "Cause"}

    def test_empty_relations(self):
        doc = Document(id="none", sentences=(Sentence(1, "a", ("a",)),),
                       annotations=AnnotationSet()).validate()
        assert extract_relation_edges(doc) == frozenset()

    def test_non_adjacent_annotation_rejected(self):
        registry = load_registry()
        doc = Document(
            id="bad",
            sentences=(Sentence(1, "a", ("a",)), Sentence(2, "b", ("b",))),
            annotations=AnnotationSet(relations=(
                RelationAnnotation(2, registry.lookup("Cause",
                                                      RelationKind.EXPLICIT)),)))
        with pytest.raises(GraphStructureError):
            extract_relation_edges(doc)

    def test_duplicate_sense_collapses(self):
        registry = load_registry()
        cause = registry.lookup("Cause", RelationKind.EXPLICIT)
        doc = Document(
            id="dup",
            sentences=(Sentence(1, "a", ("a",)), Sentence(2, "b", ("b",))),
            annotations=AnnotationSet(relations=(
                RelationAnnotation(1, cause), RelationAnnotation(1, cause))))
        assert len(extract_relation_edges(doc)) == 1


class TestBuildGraph:
    def test_demo_document_counts(self):
        graph = build_graph(make_demo_document())
        assert graph.n_sentences == 4
        assert len(graph.entity_edges) == 3
        assert len(graph.relation_edges) == 3

    def test_single_sentence_document(self):
        doc = Document(id="one", sentences=(Sentence(1, "a", ("a",)),)).validate()
        graph = build_graph(doc)
        assert graph.n_sentences == 1
        assert not graph.entity_edges and not graph.relation_edges

    def test_composed_oracles_on_random_documents(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            doc = random_document(rng, f"rand-{trial}")
            graph = build_graph(doc)
            assert {e.key for e in graph.entity_edges} == oracle_entity_edges(doc)
            expected_relations = {(r.sentence_index, r.sense)
                                  for r in doc.annotations.relations}
            assert {(e.i, e.sense) for e in graph.relation_edges} == expected_relations

    def test_deterministic(self):
        a = build_graph(make_demo_document())
        b = build_graph(make_demo_document())
        assert graph_to_record(a) == graph_to_record(b)

    def test_shift_equivariance(self):
        """Prepending an unannotated sentence shifts every edge by one."""
        doc = make_demo_document()
        shifted = Document(
            id=doc.id,
            sentences=(Sentence(1, "intro words", ("intro", "words")),)
            + tuple(Sentence(s.index + 1, s.text, s.tokens)
                    for s in doc.sentences),
            annotations=AnnotationSet(
                nouns=tuple(type(n)(n.sentence_index + 1, n.span, n.surface)
                            for n in doc.annotations.nouns),
                relations=tuple(
                    type(r)(r.sentence_index + 1, r.sense, r.direction)
                    for r in doc.annotations.relations))).validate()
        base = build_graph(doc)
        moved = build_graph(shifted)
        assert {(e.i + 1, e.j + 1, e.surface) for e in base.entity_edges} == \
               {e.key for e in moved.entity_edges}
        assert {(e.i + 1, e.sense) for e in base.relation_edges} == \
               {(e.i, e.sense) for e in moved.relation_edges}

    def test_relation_edge_bound(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            doc = random_document(rng, f"bound-{trial}")
            graph = build_graph(doc)
            assert len(graph.relation_edges) <= (graph.n_sentences - 1) * 30


def test_entity_edge_invariants():
    with pytest.raises(GraphStructureError):
        EntityEdge(2, 2, "x", EdgeSource.SHARED_NOUN)
    with pytest.raises(GraphStructureError):
        EntityEdge(1, 2, "", EdgeSource.SHARED_NOUN)


class TestSharedRelationEdges:
    def test_graphs_share_an_edge_that_is_a_fresh_one(self):
        """Two reads of one document hold the same edge objects, and each
        equals, hashes and reprs as an edge built now, and stays frozen."""
        first = build_graph(make_demo_document()).sorted_relation_edges()
        second = build_graph(make_demo_document()).sorted_relation_edges()
        assert all(a is b for a, b in zip(first, second))
        for edge in first:
            fresh = RelationEdge(edge.i, edge.sense, edge.direction)
            assert fresh is not edge
            assert (edge == fresh and hash(edge) == hash(fresh)
                    and repr(edge) == repr(fresh))
            with pytest.raises(dataclasses.FrozenInstanceError):
                edge.i = 2

    def test_a_shared_edge_keeps_its_argument_types(self):
        """1 and True are equal keys; the table keeps them apart, so each
        edge holds exactly what its constructor was given."""
        cause = load_registry().lookup("Cause", RelationKind.IMPLICIT)
        one = graph_module._shared_relation_edge(1, cause, None)
        true = graph_module._shared_relation_edge(True, cause, None)
        assert type(one.i) is int and type(true.i) is bool
        assert repr(true) == repr(RelationEdge(True, cause, None))

    def test_the_table_stays_within_its_bound(self):
        table = graph_module._shared_relation_edge
        bound = table.cache_info().maxsize
        assert bound == 4096
        cause = load_registry().lookup("Cause", RelationKind.EXPLICIT)
        for i in range(1, bound + 200):
            for direction in (None, CauseDirection.REASON):
                table(i, cause, direction)
        assert table.cache_info().currsize == bound
        # a recent edge is still shared, an evicted one is built again
        assert table(bound + 199, cause, None) is table(bound + 199, cause,
                                                        None)
        assert table(1, cause, None) == RelationEdge(1, cause, None)
