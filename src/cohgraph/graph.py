"""Sentence-entity-relation graph construction from annotated documents.

Two sentences are linked by an entity edge when they share a case-folded
annotated noun surface or when a coreference link spans them; adjacent
sentences are linked by one relation edge per annotated discourse sense.
Everything here is a pure function over immutable inputs.

Graphs share each distinct RelationEdge: a table of at most 4,096 edges
(an lru_cache with typed keys around the constructor, about 1.1 MiB when
full with four-digit sentence indices, about 270 bytes an edge) builds an
edge on a miss and returns that same edge on a hit. Entity edges are built
per graph, since most of them are distinct.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .documents import Document
from .relations import CauseDirection, RelationKind, RelationSense


class GraphStructureError(ValueError):
    """An annotation references structure the document does not have."""


class EdgeSource(enum.Enum):
    SHARED_NOUN = "shared_noun"
    COREF = "coref"

    __hash__ = object.__hash__  # members compare by identity, see RelationKind


@dataclass(frozen=True, slots=True)
class EntityEdge:
    """Entity link between sentences i < j, keyed by (i, j, surface)."""

    i: int
    j: int
    surface: str
    source: EdgeSource

    def __post_init__(self) -> None:
        if not 1 <= self.i < self.j:
            raise GraphStructureError(
                f"entity edge requires 1 <= i < j, got ({self.i}, {self.j})")
        if not self.surface:
            raise GraphStructureError("entity edge has empty surface")

    @property
    def key(self) -> tuple[int, int, str]:
        return (self.i, self.j, self.surface)


@dataclass(frozen=True, slots=True)
class RelationEdge:
    """Discourse relation edge spanning the adjacent pair (i, i+1)."""

    i: int
    sense: RelationSense
    direction: CauseDirection | None = None

    @property
    def j(self) -> int:
        return self.i + 1

    @property
    def key(self) -> tuple[int, str, str]:
        return (self.i, self.sense.kind.value, self.sense.name)


@dataclass(frozen=True, slots=True)
class CoherenceGraph:
    doc_id: str
    n_sentences: int
    entity_edges: frozenset[EntityEdge]
    relation_edges: frozenset[RelationEdge]

    def sorted_entity_edges(self) -> list[EntityEdge]:
        return sorted(self.entity_edges, key=lambda e: e.key)

    def sorted_relation_edges(self) -> list[RelationEdge]:
        return sorted(self.relation_edges, key=lambda e: e.key)


# typed keys: an edge holds exactly the values a fresh one would
_shared_relation_edge = lru_cache(maxsize=4096, typed=True)(RelationEdge)


def extract_entity_edges(doc: Document) -> frozenset[EntityEdge]:
    """Entity edges from shared nouns and cross-sentence coreference links.

    One SharedNoun edge per sentence pair per distinct case-folded surface;
    one Coref edge per link whose mentions sit in different sentences, with
    the earlier mention's text as surface. On a (i, j, surface) collision the
    coref edge wins.
    """
    n = len(doc.sentences)
    sentences_of: dict[str, set[int]] = {}
    for noun in doc.annotations.nouns:
        if not 1 <= noun.sentence_index <= n:
            raise GraphStructureError(
                f"noun annotation references sentence {noun.sentence_index} "
                f"outside [1, {n}]")
        sentences_of.setdefault(noun.surface.casefold(), set()).add(
            noun.sentence_index)

    # every pair of sentences sharing a surface, in time linear in the edges
    edges: dict[tuple[int, int, str], EntityEdge] = {}
    for surface, indices in sentences_of.items():
        if len(indices) > 1:
            indices = sorted(indices)
            for a_pos, i in enumerate(indices):
                for j in indices[a_pos + 1:]:
                    edges[(i, j, surface)] = EntityEdge(
                        i, j, surface, EdgeSource.SHARED_NOUN)

    for mention_a, mention_b in doc.annotations.coref_links:
        for m in (mention_a, mention_b):
            if not 1 <= m.sentence_index <= n:
                raise GraphStructureError(
                    f"coref mention references sentence {m.sentence_index} "
                    f"outside [1, {n}]")
        if mention_a.sentence_index == mention_b.sentence_index:
            continue
        first, second = ((mention_a, mention_b)
                         if mention_a.sentence_index < mention_b.sentence_index
                         else (mention_b, mention_a))
        edge = EntityEdge(first.sentence_index, second.sentence_index,
                          doc.mention_text(first), EdgeSource.COREF)
        edges[edge.key] = edge  # coref overrides a shared-noun edge on the same key

    return frozenset(edges.values())


def extract_relation_edges(doc: Document) -> frozenset[RelationEdge]:
    """One RelationEdge per annotated adjacent-pair relation, deduplicated
    per (pair, sense); the first annotation's direction wins on duplicates."""
    n = len(doc.sentences)
    # (i, kind, name) identifies an edge as RelationEdge.key does, and
    # hashes without calling back into Python
    edges: dict[tuple[int, RelationKind, str], RelationEdge] = {}
    for rel in doc.annotations.relations:
        i, sense = rel.sentence_index, rel.sense
        if not 1 <= i < n:
            raise GraphStructureError(f"relation at sentence {i} is not an "
                                      f"adjacent pair in [1, {n - 1}]")
        key = (i, sense.kind, sense.name)
        if key not in edges:
            edges[key] = _shared_relation_edge(i, sense, rel.direction)
    return frozenset(edges.values())


def build_graph(doc: Document) -> CoherenceGraph:
    """Construct the full coherence graph for a validated document. A
    GraphStructureError is raised again as `document <id>: <message>`."""
    doc.validate()
    try:
        return CoherenceGraph(
            doc_id=doc.id,
            n_sentences=len(doc.sentences),
            entity_edges=extract_entity_edges(doc),
            relation_edges=extract_relation_edges(doc),
        )
    except GraphStructureError as exc:
        raise GraphStructureError(f"document {doc.id}: {exc}") from exc


def graph_to_record(graph: CoherenceGraph) -> dict:
    """JSON-ready dump mirroring the graph fields, edges in canonical order."""
    return {
        "doc_id": graph.doc_id,
        "n_sentences": graph.n_sentences,
        "entity_edges": [
            [e.i, e.j, e.surface, e.source.value]
            for e in graph.sorted_entity_edges()],
        "relation_edges": [
            [e.i, e.sense.name, e.sense.kind.value,
             e.direction.value if e.direction else None]
            for e in graph.sorted_relation_edges()],
    }
