"""Shared fixtures: the four-sentence demo document, toy model configs, a
debug table of a flat sequence, the extract -> filter -> render prompt
pipeline and the JSON mutations the fuzz tests draw."""

from __future__ import annotations

import copy

import pytest
from hypothesis import strategies as st

from cohgraph.documents import (AnnotationSet, Document, NounAnnotation,
                                RelationAnnotation, Sentence, TokenSpan)
from cohgraph.flat import ElementKind, FlatSequence
from cohgraph.fusion.config import ModelConfig
from cohgraph.graph import CoherenceGraph
from cohgraph.labels import CoherenceLabel
from cohgraph.prompts import (DEFAULT_MAX_CHARS, PromptDocument,
                              extract_triples, filter_triples, render_prompt)
from cohgraph.relations import CauseDirection, RelationKind, load_registry
from cohgraph.variants import Variant


def _sentence(index: int, tokens: list[str]) -> Sentence:
    return Sentence(index=index, text=" ".join(tokens), tokens=tuple(tokens))


def make_demo_document() -> Document:
    """Four sentences with one entity chain (John in s1, s2, s4) and three
    adjacent discourse relations (reason, instantiation, result).

    Yields exactly the entity pairs {(1,2), (1,4), (2,4)} and the triple list
    [(s1,entity,s2), (s1,reason,s2), (s1,entity,s4), (s2,instantiation,s3),
    (s2,entity,s4), (s3,result,s4)].
    """
    registry = load_registry()
    cause = registry.lookup("Cause", RelationKind.EXPLICIT)
    instantiation = registry.lookup("Instantiation", RelationKind.EXPLICIT)
    sentences = (
        _sentence(1, ["John", "hoped", "to", "travel", "to", "the", "airport",
                      "on", "Friday", "morning", "."]),
        _sentence(2, ["Because", "a", "citywide", "strike", "shut",
                      "everything", "down", ",", "John", "was", "stuck",
                      "at", "home", "."]),
        _sentence(3, ["For", "instance", ",", "every", "bus", "and", "tram",
                      "in", "the", "road", "network", "stood", "still", "."]),
        _sentence(4, ["So", "John", "could", "not", "catch", "his", "flight",
                      "in", "time", "."]),
    )
    nouns = (
        NounAnnotation(1, TokenSpan(0, 1), "John"),
        NounAnnotation(1, TokenSpan(6, 7), "airport"),
        NounAnnotation(1, TokenSpan(8, 9), "Friday"),
        NounAnnotation(1, TokenSpan(9, 10), "morning"),
        NounAnnotation(2, TokenSpan(3, 4), "strike"),
        NounAnnotation(2, TokenSpan(8, 9), "John"),
        NounAnnotation(2, TokenSpan(12, 13), "home"),
        NounAnnotation(3, TokenSpan(4, 5), "bus"),
        NounAnnotation(3, TokenSpan(6, 7), "tram"),
        NounAnnotation(3, TokenSpan(9, 10), "road"),
        NounAnnotation(3, TokenSpan(10, 11), "network"),
        NounAnnotation(4, TokenSpan(1, 2), "John"),
        NounAnnotation(4, TokenSpan(6, 7), "flight"),
        NounAnnotation(4, TokenSpan(8, 9), "time"),
    )
    relations = (
        RelationAnnotation(1, cause, CauseDirection.REASON),
        RelationAnnotation(2, instantiation, None),
        RelationAnnotation(3, cause, CauseDirection.RESULT),
    )
    return Document(
        id="demo-0001",
        sentences=sentences,
        label=CoherenceLabel.HIGH,
        domain_tag="demo",
        annotations=AnnotationSet(nouns=nouns, relations=relations),
    ).validate()


@pytest.fixture
def demo_document() -> Document:
    return make_demo_document()


def tiny_model_config(**overrides) -> ModelConfig:
    """A small float64 config: the oracles and finite-difference checks
    that use it hold their tolerances at float64."""
    defaults = dict(d_model=32, n_heads=2, n_layers=1, d_ffn=64,
                    n_token_buckets=16, n_entity_buckets=8,
                    dropout_rate=0.1, seed=7, dtype="float64")
    defaults.update(overrides)
    return ModelConfig(**defaults)


@pytest.fixture
def tiny_config() -> ModelConfig:
    return tiny_model_config()


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


def prompt_for(doc: Document, graph: CoherenceGraph, variant: Variant,
               max_chars: int = DEFAULT_MAX_CHARS) -> PromptDocument:
    """extract -> filter -> render, as emit-prompts runs it."""
    triples = filter_triples(extract_triples(graph), variant)
    return render_prompt(doc, triples, variant, max_chars)


# Any JSON value. Integers are small or at least 2^31: a config field at 2^31
# or more is refused by check_size before anything of its size exists,
# while a field between the two (say max_relative_distance 10^7) may be a
# model this machine can hold, and loading it would allocate gigabytes in
# the test process.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=6)
    | st.integers(-3, 40) | st.integers(2 ** 31, 2 ** 80),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=5)


def json_paths(node, prefix=()):
    """The path (keys and indices from the root) of every node of a JSON
    tree, the root's () first."""
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from json_paths(child, prefix + (key,))


def replaced_at(tree, path, value):
    """A copy of a JSON tree with the node at path replaced by value."""
    if not path:
        return value
    tree = copy.deepcopy(tree)
    node = tree
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return tree
