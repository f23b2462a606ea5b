"""Shared fixtures: the four-sentence demo document and toy model configs."""

from __future__ import annotations

import pytest

from cohgraph.documents import (AnnotationSet, Document, NounAnnotation,
                                RelationAnnotation, Sentence, TokenSpan)
from cohgraph.fusion.config import ModelConfig
from cohgraph.labels import CoherenceLabel
from cohgraph.relations import CauseDirection, RelationKind, load_registry


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
