"""Graph-to-prompt linearization: ordered triples and rendered prompt text.

A graph decomposes into (s_i, label, s_j) triples: one per entity edge with
the label "entity", one per relation edge with the sense's lowercase render.
Cause renders directionally when the annotation carries a direction flag
("reason" when the later sentence is the cause, "result" when it is the
effect) and as plain "cause" otherwise. Only i < j triples exist, ordered by
(i, j, entity before relation, label) to follow reading order.

Documents share each distinct Triple, as graphs share relation edges: a
table of at most 4,096 triples (an lru_cache with typed keys around the
constructor, about 1.6 MiB when full with four-digit sentence indices and
the longest label, about 390 bytes a triple) builds a triple on a miss,
with its checks, and returns that same triple on a hit. render_prompt
keeps the sentence section of the last document it rendered, so a
document's consecutive variants format its sentences once.

Prompt wording is canonical to this repository; the golden files under
tests/golden are the byte-exact contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .documents import Document
from .graph import CoherenceGraph, RelationEdge
from .relations import CauseDirection
from .variants import Variant

ENTITY_LABEL = "entity"

DEFAULT_MAX_CHARS = 100_000


class PromptBudgetError(RuntimeError):
    """A rendered prompt exceeded the configured character budget."""

    def __init__(self, doc_id: str, length: int, budget: int):
        self.doc_id = doc_id
        self.length = length
        self.budget = budget
        super().__init__(
            f"prompt for document {doc_id!r} is {length} characters, "
            f"over the {budget}-character budget")


class PromptStructureError(ValueError):
    """Triples and document disagree (out-of-range sentence, variant mismatch)."""


@dataclass(frozen=True, slots=True)
class Triple:
    i: int
    label: str
    j: int
    # the rendered form, formatted once; not part of equality or repr
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.i < self.j:
            raise PromptStructureError(
                f"triple requires i < j, got ({self.i}, {self.j})")
        object.__setattr__(self, "text",
                           f"(s_{self.i}, {self.label}, s_{self.j})")

    def render(self) -> str:
        return self.text


# typed keys, as for relation edges in graph.py
_shared_triple = lru_cache(maxsize=4096, typed=True)(Triple)


def relation_label(edge: RelationEdge) -> str:
    """Directional lowercase render of a relation edge's sense."""
    if edge.sense.name == "Cause" and edge.direction is not None:
        return ("reason" if edge.direction is CauseDirection.REASON else "result")
    return edge.sense.render


def extract_triples(graph: CoherenceGraph) -> list[Triple]:
    """All two-hop sentence-edge-sentence paths with i < j, canonically ordered.

    Every edge already links exactly two sentences, so direct enumeration of
    edges is equivalent to the sentence-by-sentence traversal reading.
    """
    # sort plain (i, j, is_relation, label) rows, then build each Triple once
    rows = [(e.i, e.j, False, ENTITY_LABEL) for e in graph.entity_edges]
    rows += [(e.i, e.j, True, relation_label(e)) for e in graph.relation_edges]
    rows.sort()
    return [_shared_triple(i, label, j) for i, j, _, label in rows]


def filter_triples(triples: list[Triple], variant: Variant) -> list[Triple]:
    entities, relations = variant.keeps_entities, variant.keeps_relations
    if entities and relations:
        return list(triples)
    return [t for t in triples
            if (entities if t.label == ENTITY_LABEL else relations)]


@dataclass(frozen=True)
class PromptDocument:
    variant: Variant
    text: str
    triples_used: tuple[Triple, ...]


_HEADERS = {
    Variant.TEXT_ONLY: (
        "Coherence measures how well a document hangs together as a connected\n"
        "whole. Read the document below and judge its coherence, considering\n"
        "only the textual content of the sentences."),
    Variant.TEXT_ENTY: (
        "Coherence measures how well a document hangs together as a connected\n"
        "whole. Read the document below; it is followed by connection triples,\n"
        "where (s_i, entity, s_j) means sentences i and j mention the same\n"
        "entity. Judge the document's coherence considering both the sentence\n"
        "content and these entity connections."),
    Variant.TEXT_REL: (
        "Coherence measures how well a document hangs together as a connected\n"
        "whole. Read the document below; it is followed by connection triples,\n"
        "where a triple such as (s_i, reason, s_j) names the discourse relation\n"
        "holding between sentences i and j. Judge the document's coherence\n"
        "considering both the sentence content and these relation connections."),
    Variant.FULL: (
        "Coherence measures how well a document hangs together as a connected\n"
        "whole. Read the document below; it is followed by connection triples\n"
        "of two kinds: (s_i, entity, s_j) means sentences i and j mention the\n"
        "same entity, and a triple naming a discourse relation, such as\n"
        "(s_i, reason, s_j), describes how the two sentences are logically\n"
        "connected. Judge the document's coherence considering the sentence\n"
        "content together with these connection patterns."),
}
_HEADERS[Variant.FULL_WITH_EXPLANATION] = _HEADERS[Variant.FULL]

_QUERY = ("Question: Is the coherence of this document low, medium, or high?\n"
          "Answer with exactly one word: low, medium, or high.")
_EXPLANATION_REQUEST = "Then provide a brief explanation for your judgment."


# The last document rendered and its "Sentences:" section, so its
# consecutive variants format the section once. One tuple, read and
# replaced whole, so a thread never pairs one document with another's.
_last_sentences: tuple[Document | None, str] = (None, "")


def _sentence_section(doc: Document) -> str:
    global _last_sentences
    last_doc, section = _last_sentences
    if last_doc is not doc:
        section = "\n".join(["Sentences:"] + [f"s_{s.index}: {s.text}"
                                              for s in doc.sentences])
        _last_sentences = (doc, section)
    return section


def render_prompt(doc: Document, triples: list[Triple], variant: Variant,
                  max_chars: int = DEFAULT_MAX_CHARS) -> PromptDocument:
    """Deterministic prompt text for one document under one variant."""
    n = len(doc.sentences)
    entities, relations = variant.keeps_entities, variant.keeps_relations
    admits_all = entities and relations
    for t in triples:
        if not 1 <= t.i < t.j <= n:
            raise PromptStructureError(
                f"triple {t.text} references sentences outside [1, {n}]")
        if not (admits_all
                or (entities if t.label == ENTITY_LABEL else relations)):
            raise PromptStructureError(
                f"triple {t.text} is not allowed under variant {variant.value}")

    parts = [_HEADERS[variant], "", _sentence_section(doc)]
    if variant is not Variant.TEXT_ONLY:
        parts += ["", "Connections:"]
        parts += [t.text for t in triples]
    parts += ["", _QUERY]
    if variant is Variant.FULL_WITH_EXPLANATION:
        parts.append(_EXPLANATION_REQUEST)
    text = "\n".join(parts) + "\n"

    if len(text) > max_chars:
        raise PromptBudgetError(doc.id, len(text), max_chars)
    return PromptDocument(variant=variant, text=text, triples_used=tuple(triples))
