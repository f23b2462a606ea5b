"""Deterministic synthetic corpora with label-controlled coherence signals.

Construction per document (labels cycle low/medium/high):

* Entity channel (coreference). Every sentence carries one unique noun token
  and one pronoun token from a small closed class, for every label, so raw
  token distributions are label-independent. What differs is the coreference
  annotation: high documents link every adjacent pair (the pronoun of
  sentence k+1 corefers with the noun of sentence k); medium documents link
  each adjacent pair with a profile-set probability, so a fraction of them
  are entity-indistinguishable from high; low documents have no links at
  all. The entity signal is therefore visible only through the annotation
  channel, never through the text.
* Relation channel. Every adjacent pair gets an implicit relation (NoRel
  marks the no-relation case) and, with a profile-set probability, an
  explicit relation as well. Senses are sampled from the registry prior
  tilted per label: high documents are Cause/Conjunction-rich, low documents
  NoRel-heavy, medium uses the prior unchanged. The high and low tilts are
  exactly opposite and labels are assigned round-robin, so the corpus-wide
  sense marginal matches the registry prior.
* Text channel. Remaining tokens come from a shared vocabulary with
  probability `shared_token_prob`, otherwise from a small per-label
  vocabulary, making the text signal real but strictly weaker than the graph
  signals.

Vocabularies are domain-prefixed, so text features do not transfer across
domain tags while the graph signals do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .documents import (AnnotationSet, Document, Mention, NounAnnotation,
                        RelationAnnotation, Sentence, TokenSpan)
from .labels import CoherenceLabel
from .relations import CauseDirection, RelationKind, RelationSense, load_registry

# Per-kind prior tilt applied with +tilt for high and -tilt for low documents.
# Values sum to zero per kind, and every tilted probability stays nonnegative
# (each positive entry is below the matching prior, likewise for negatives).
_EXPLICIT_DELTA = {
    "Cause": 0.07, "Conjunction": 0.20,
    "Concession": -0.15, "Synchronous": -0.06, "Asynchronous": -0.05,
    "Condition": -0.01,
}
_IMPLICIT_DELTA = {
    "Cause": 0.18, "Conjunction": 0.10,
    "NoRel": -0.078, "Level-of-detail": -0.12, "Instantiation": -0.032,
    "Concession": -0.05,
}

_PRONOUNS = ("it", "they", "this", "that", "these")


@dataclass(frozen=True)
class SynthProfile:
    name: str
    n_sentences: tuple[int, int] = (5, 8)
    tokens_per_sentence: tuple[int, int] = (6, 9)
    shared_vocab_size: int = 120
    label_vocab_size: int = 25
    shared_token_prob: float = 0.90
    entity_pool_size: int = 400
    medium_entity_prob: float = 0.80
    explicit_prob: float = 0.70
    relation_tilt: float = 1.0
    domain_tags: tuple[str, ...] = ("synthA", "synthB")

    def __post_init__(self) -> None:
        if not 0.0 <= self.shared_token_prob <= 1.0:
            raise ValueError("shared_token_prob must be in [0, 1]")
        if not 0.0 <= self.relation_tilt <= 1.0:
            raise ValueError("relation_tilt must be in [0, 1]")


PROFILES = {
    "balanced": SynthProfile(name="balanced"),
    "separable": SynthProfile(name="separable", shared_token_prob=0.35,
                              medium_entity_prob=0.50,
                              domain_tags=("synthA",)),
}


class _SenseSampler:
    """Label-conditional sense distributions with a prior-matching marginal."""

    def __init__(self, tilt: float):
        registry = load_registry()
        self.senses: dict[RelationKind, tuple[RelationSense, ...]] = {}
        self.dists: dict[tuple[RelationKind, CoherenceLabel], np.ndarray] = {}
        deltas = {RelationKind.EXPLICIT: _EXPLICIT_DELTA,
                  RelationKind.IMPLICIT: _IMPLICIT_DELTA}
        for kind in RelationKind:
            names = registry.names(kind)
            prior = np.array([registry.priors(kind)[n] for n in names])
            prior = prior / prior.sum()
            delta = tilt * np.array([deltas[kind].get(n, 0.0) for n in names])
            for label, sign in ((CoherenceLabel.LOW, -1.0),
                                (CoherenceLabel.MEDIUM, 0.0),
                                (CoherenceLabel.HIGH, +1.0)):
                dist = prior + sign * delta
                if (dist < 0).any():
                    raise ValueError(f"tilt {tilt} drives a {kind.value} "
                                     "sense probability negative")
                self.dists[(kind, label)] = dist / dist.sum()
            self.senses[kind] = tuple(registry.lookup(n, kind) for n in names)

    def sample(self, rng: np.random.Generator, kind: RelationKind,
               label: CoherenceLabel) -> RelationSense:
        idx = rng.choice(len(self.senses[kind]), p=self.dists[(kind, label)])
        return self.senses[kind][idx]


def _doc_rng(seed: int, doc_index: int) -> np.random.Generator:
    bitgen = np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF,
                              counter=[doc_index, 0, 0, 1])
    return np.random.Generator(bitgen)


def synth_generate(n_docs: int, seed: int,
                   profile: SynthProfile | str = "balanced") -> list[Document]:
    """Generate a deterministic labeled corpus; same inputs, same documents."""
    if n_docs < 1:
        raise ValueError("n_docs must be >= 1")
    if isinstance(profile, str):
        profile = PROFILES[profile]
    sampler = _SenseSampler(profile.relation_tilt)

    docs = []
    for index in range(n_docs):
        label = (CoherenceLabel.LOW, CoherenceLabel.MEDIUM,
                 CoherenceLabel.HIGH)[index % 3]
        domain = profile.domain_tags[(index // 3) % len(profile.domain_tags)]
        rng = _doc_rng(seed, index)
        n_sent = int(rng.integers(profile.n_sentences[0],
                                  profile.n_sentences[1] + 1))

        # tokens: every sentence opens with a unique noun and a pronoun from
        # a closed class (identical layout for every label), then vocabulary
        # words that carry the (weak) text signal
        pool = rng.choice(profile.entity_pool_size, size=n_sent, replace=False)
        nouns = [f"{domain}-thing{int(p):03d}" for p in pool]
        token_lists: list[list[str]] = []
        for k in range(n_sent):
            words = [nouns[k], _PRONOUNS[int(rng.integers(len(_PRONOUNS)))]]
            n_tok = int(rng.integers(profile.tokens_per_sentence[0],
                                     profile.tokens_per_sentence[1] + 1))
            for _ in range(n_tok):
                if rng.random() < profile.shared_token_prob:
                    words.append(f"{domain}-word"
                                 f"{rng.integers(profile.shared_vocab_size):03d}")
                else:
                    words.append(f"{domain}-{label.as_text}"
                                 f"{rng.integers(profile.label_vocab_size):02d}")
            token_lists.append(words)
        noun_annotations = tuple(
            NounAnnotation(k + 1, TokenSpan(0, 1), nouns[k])
            for k in range(n_sent))

        # entity channel: coref links between noun of sentence k (token 0)
        # and pronoun of sentence j (token 1)
        def link(k: int, j: int) -> tuple[Mention, Mention]:
            return (Mention(k + 1, TokenSpan(0, 1)),
                    Mention(j + 1, TokenSpan(1, 2)))

        coref_links: list[tuple[Mention, Mention]] = []
        if label is CoherenceLabel.HIGH:
            coref_links += [link(k, k + 1) for k in range(n_sent - 1)]
        elif label is CoherenceLabel.MEDIUM:
            coref_links += [link(k, k + 1) for k in range(n_sent - 1)
                            if rng.random() < profile.medium_entity_prob]

        # relation channel: an implicit sense per adjacent pair, plus an
        # explicit one when a connective is present
        relations = []
        for k in range(1, n_sent):
            kinds = [RelationKind.IMPLICIT]
            if rng.random() < profile.explicit_prob:
                kinds.append(RelationKind.EXPLICIT)
            for kind in kinds:
                sense = sampler.sample(rng, kind, label)
                direction = None
                if sense.name == "Cause":
                    direction = (CauseDirection.REASON if rng.random() < 0.5
                                 else CauseDirection.RESULT)
                relations.append(RelationAnnotation(k, sense, direction))

        sentences = tuple(
            Sentence(index=k + 1, text=" ".join(token_lists[k]),
                     tokens=tuple(token_lists[k]))
            for k in range(n_sent))
        docs.append(Document(
            id=f"synth-{index:05d}",
            sentences=sentences,
            label=label,
            domain_tag=domain,
            annotations=AnnotationSet(nouns=noun_annotations,
                                      coref_links=tuple(coref_links),
                                      relations=tuple(relations)),
        ).validate())
    return docs
