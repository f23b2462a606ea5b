"""Ablation/prompt variants: which graph elements a model or prompt sees."""

from __future__ import annotations

import enum


class Variant(enum.Enum):
    """Each member's value is its name in files and on the command line;
    keeps_entities and keeps_relations are constants of the member."""

    # value, keeps_entities, keeps_relations
    TEXT_ONLY = ("TextOnly", False, False)
    TEXT_ENTY = ("TextEnty", True, False)
    TEXT_REL = ("TextRel", False, True)
    FULL = ("Full", True, True)
    FULL_WITH_EXPLANATION = ("FullWithExplanation", True, True)

    keeps_entities: bool
    keeps_relations: bool

    def __new__(cls, value: str, keeps_entities: bool, keeps_relations: bool):
        member = object.__new__(cls)
        member._value_ = value
        member.keeps_entities = keeps_entities
        member.keeps_relations = keeps_relations
        return member

    # Members are singletons that compare by identity, so the identity hash
    # agrees with equality; it runs in C where Enum's hashes the name.
    __hash__ = object.__hash__


# Variants a fusion model can train/evaluate under (explanation is prompt-only).
FUSION_VARIANTS = (Variant.TEXT_ONLY, Variant.TEXT_ENTY, Variant.TEXT_REL,
                   Variant.FULL)
