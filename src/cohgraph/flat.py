"""Linearization of a coherence graph into a flat 2D-positioned sequence.

Every element carries a (start, end) position over the original sentence
ordering: sentence k sits at (k, k), an entity edge linking sentences i < j
at (i, j), and a relation edge over the adjacent pair i at (i, i+1). The
element order is canonical (a pure function of graph content): sentences
first in index order, then edges sorted by (start, end, entities before
relations, payload).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .graph import CoherenceGraph, EntityEdge, RelationEdge
from .relations import RelationSense
from .variants import Variant


class ElementKind(enum.IntEnum):
    # Enum order doubles as the entity-before-relation sort rank.
    SENTENCE = 0
    ENTITY = 1
    RELATION = 2


@dataclass(frozen=True)
class FlatElement:
    kind: ElementKind
    payload: int | str | RelationSense  # sentence index | surface | sense
    start: int
    end: int

    @property
    def span(self) -> int:
        return self.end - self.start

    def payload_key(self) -> str:
        if self.kind is ElementKind.RELATION:
            sense = self.payload
            return f"{sense.kind.value}:{sense.name}"
        return str(self.payload)


@dataclass(frozen=True)
class FlatSequence:
    elements: tuple[FlatElement, ...]
    n_sentences: int

    def __len__(self) -> int:
        return len(self.elements)


def _sentence_element(k: int) -> FlatElement:
    return FlatElement(ElementKind.SENTENCE, k, k, k)


def _entity_element(edge: EntityEdge) -> FlatElement:
    return FlatElement(ElementKind.ENTITY, edge.surface, edge.i, edge.j)


def _relation_element(edge: RelationEdge) -> FlatElement:
    return FlatElement(ElementKind.RELATION, edge.sense, edge.i, edge.i + 1)


def _edge_sort_key(el: FlatElement) -> tuple:
    return (el.start, el.end, int(el.kind), el.payload_key())


def linearize(graph: CoherenceGraph, max_elements: int = 512) -> FlatSequence:
    """Convert a graph to its canonical flat sequence.

    The max_elements cap is enforced by dropping entity elements only,
    widest (end - start) first, latest in canonical order first among
    ties; sentence and relation elements are never dropped.
    """
    sentences = [_sentence_element(k) for k in range(1, graph.n_sentences + 1)]
    edges = [_entity_element(e) for e in graph.entity_edges]
    edges += [_relation_element(e) for e in graph.relation_edges]
    edges.sort(key=_edge_sort_key)

    overflow = len(sentences) + len(edges) - max_elements
    if overflow > 0:
        droppable = sorted(
            (idx for idx, el in enumerate(edges) if el.kind is ElementKind.ENTITY),
            key=lambda idx: (-edges[idx].span, -idx))
        drop = set(droppable[:overflow])
        edges = [el for idx, el in enumerate(edges) if idx not in drop]

    return FlatSequence(tuple(sentences + edges), graph.n_sentences)


def apply_variant(seq: FlatSequence, variant: Variant) -> FlatSequence:
    """Filter edge elements per the ablation variant; sentences always stay."""
    entities, relations = variant.keeps_entities, variant.keeps_relations
    kept = tuple(
        el for el in seq.elements
        if el.kind is ElementKind.SENTENCE
        or (entities if el.kind is ElementKind.ENTITY else relations))
    return FlatSequence(kept, seq.n_sentences)


def format_sequence(seq: FlatSequence) -> str:
    """Debug table: one row per element with its kind, payload, and position."""
    rows = []
    for el in seq.elements:
        if el.kind is ElementKind.SENTENCE:
            payload = f"s_{el.payload}"
        elif el.kind is ElementKind.ENTITY:
            payload = el.payload
        else:
            payload = el.payload.render
        rows.append((el.kind.name.lower(), payload, f"({el.start}, {el.end})"))
    width = [max(len(r[c]) for r in rows) for c in range(3)] if rows else [0, 0, 0]
    return "\n".join(
        f"{r[0]:<{width[0]}}  {r[1]:<{width[1]}}  {r[2]}" for r in rows)
