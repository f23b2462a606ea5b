"""Ablation/prompt variants: which graph elements a model or prompt sees."""

from __future__ import annotations

import enum


class Variant(enum.Enum):
    TEXT_ONLY = "TextOnly"
    TEXT_ENTY = "TextEnty"
    TEXT_REL = "TextRel"
    FULL = "Full"
    FULL_WITH_EXPLANATION = "FullWithExplanation"

    # Members are singletons that compare by identity, so the identity hash
    # agrees with equality; it runs in C where Enum's hashes the name.
    __hash__ = object.__hash__

    @property
    def keeps_entities(self) -> bool:
        return self in (Variant.TEXT_ENTY, Variant.FULL,
                        Variant.FULL_WITH_EXPLANATION)

    @property
    def keeps_relations(self) -> bool:
        return self in (Variant.TEXT_REL, Variant.FULL,
                        Variant.FULL_WITH_EXPLANATION)


# Variants a fusion model can train/evaluate under (explanation is prompt-only).
FUSION_VARIANTS = (Variant.TEXT_ONLY, Variant.TEXT_ENTY, Variant.TEXT_REL,
                   Variant.FULL)
