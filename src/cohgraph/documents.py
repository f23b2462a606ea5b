"""Documents, sentences, and the externally-supplied annotation layer.

Annotations (nouns, coreference links, adjacent-sentence discourse relations)
are consumed from files; no NLP runs here. All types are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .labels import CoherenceLabel
from .relations import CauseDirection, RelationSense


class DocumentStructureError(ValueError):
    """An annotation or sentence violates the document's structural invariants."""


@dataclass(frozen=True, slots=True)
class TokenSpan:
    """Half-open [start, end) span over a sentence's token indices."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise DocumentStructureError(
                f"invalid token span [{self.start}, {self.end})")


@dataclass(frozen=True, slots=True)
class Mention:
    """A mention located by 1-based sentence index and token span."""

    sentence_index: int
    span: TokenSpan


@dataclass(frozen=True, slots=True)
class NounAnnotation:
    sentence_index: int
    span: TokenSpan
    surface: str


@dataclass(frozen=True, slots=True)
class RelationAnnotation:
    """A discourse relation between sentence i and sentence i+1.

    direction is only meaningful for Cause (reason: the later sentence is the
    cause; result: the later sentence is the effect) and may be None.
    """

    sentence_index: int
    sense: RelationSense
    direction: CauseDirection | None = None


@dataclass(frozen=True, slots=True)
class AnnotationSet:
    nouns: tuple[NounAnnotation, ...] = ()
    coref_links: tuple[tuple[Mention, Mention], ...] = ()
    relations: tuple[RelationAnnotation, ...] = ()


@dataclass(frozen=True, slots=True)
class Sentence:
    index: int  # 1-based position in the document
    text: str
    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.index < 1:
            raise DocumentStructureError(f"sentence index {self.index} < 1")
        if self.text and not self.tokens:
            raise DocumentStructureError(
                f"sentence {self.index} has text but no tokens")


@dataclass(frozen=True)
class Document:
    id: str
    sentences: tuple[Sentence, ...]
    label: CoherenceLabel | None = None
    domain_tag: str = ""
    annotations: AnnotationSet = field(default_factory=AnnotationSet)
    # set by a validate() that passed; the fields it checked are immutable
    _valid: bool = field(default=False, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.sentences)

    def validate(self) -> "Document":
        """Check all structural invariants; returns self for chaining.

        Raises DocumentStructureError on the first violation. Corpus loading
        and graph building both call this, so hand-built documents used in
        error-path tests can stay unchecked until they hit a pipeline. A
        document that passed once returns at once.
        """
        if self._valid:
            return self
        n = len(self.sentences)
        if n == 0:
            raise DocumentStructureError(f"document {self.id!r} has no sentences")
        for k, sent in enumerate(self.sentences):
            if sent.index != k + 1:
                raise DocumentStructureError(
                    f"document {self.id!r}: sentence at position {k} has "
                    f"index {sent.index}, expected {k + 1}")
        # a mention whose span does not end inside its sentence goes to
        # _check_mention, which raises the message
        ends = {sent.index: len(sent.tokens) for sent in self.sentences}
        for noun in self.annotations.nouns:
            if noun.span.end > ends.get(noun.sentence_index, -1):
                self._check_mention(noun.sentence_index, noun.span, "noun")
            if not noun.surface:
                raise DocumentStructureError(
                    f"document {self.id!r}: empty noun surface in "
                    f"sentence {noun.sentence_index}")
        for a, b in self.annotations.coref_links:
            if a.span.end > ends.get(a.sentence_index, -1):
                self._check_mention(a.sentence_index, a.span, "coref mention")
            if b.span.end > ends.get(b.sentence_index, -1):
                self._check_mention(b.sentence_index, b.span, "coref mention")
        for rel in self.annotations.relations:
            if not 1 <= rel.sentence_index < n:
                raise DocumentStructureError(
                    f"document {self.id!r}: relation at sentence "
                    f"{rel.sentence_index} is not an adjacent pair in "
                    f"[1, {n - 1}]")
        object.__setattr__(self, "_valid", True)
        return self

    def _check_mention(self, sentence_index: int, span: TokenSpan, what: str) -> None:
        if not 1 <= sentence_index <= len(self.sentences):
            raise DocumentStructureError(
                f"document {self.id!r}: {what} references sentence "
                f"{sentence_index} outside [1, {len(self.sentences)}]")
        tokens = self.sentences[sentence_index - 1].tokens
        if span.end > len(tokens):
            raise DocumentStructureError(
                f"document {self.id!r}: {what} span [{span.start}, {span.end}) "
                f"exceeds sentence {sentence_index} length {len(tokens)}")

    def mention_text(self, mention: Mention) -> str:
        """Case-folded surface text of a mention (tokens joined by spaces)."""
        tokens = self.sentences[mention.sentence_index - 1].tokens
        return " ".join(tokens[mention.span.start:mention.span.end]).casefold()
