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
  sense marginal matches the registry prior. A sense is one uniform draw
  on the document's own Philox stream against the cumulative distribution
  of its (kind, label), the computation `Generator.choice(n, p=...)` does.
* Text channel. Remaining tokens come from a shared vocabulary with
  probability `shared_token_prob`, otherwise from a small per-label
  vocabulary, making the text signal real but strictly weaker than the graph
  signals.

Vocabularies are domain-prefixed, so text features do not transfer across
domain tags while the graph signals do.

Every document draws from its own Philox stream, keyed by the seed with the
document index in the counter, so corpora are byte-stable for a seed and
profile; tests/test_synth.py pins them by sha256 digests.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
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
        """Refuse, naming the field, what synth_generate cannot generate."""
        if not 0.0 <= self.shared_token_prob <= 1.0:
            raise ValueError("shared_token_prob must be in [0, 1]")
        if not 0.0 <= self.relation_tilt <= 1.0:
            raise ValueError("relation_tilt must be in [0, 1]")
        for name in ("shared_vocab_size", "label_vocab_size",
                     "entity_pool_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, "
                                 f"got {getattr(self, name)}")
        for name, least in (("n_sentences", 1), ("tokens_per_sentence", 0)):
            low, high = getattr(self, name)
            if not least <= low <= high:
                raise ValueError(f"{name} must be a range (low, high) with "
                                 f"{least} <= low <= high, got {(low, high)}")
        if self.n_sentences[1] > self.entity_pool_size:
            raise ValueError(
                f"n_sentences up to {self.n_sentences[1]} needs an "
                f"entity_pool_size of at least that (one entity per "
                f"sentence), got {self.entity_pool_size}")
        if not self.domain_tags:
            raise ValueError("domain_tags must not be empty")


PROFILES = {
    "balanced": SynthProfile(name="balanced"),
    "separable": SynthProfile(name="separable", shared_token_prob=0.35,
                              medium_entity_prob=0.50,
                              domain_tags=("synthA",)),
}


class _SenseSampler:
    """Label-conditional sense distributions with a prior-matching marginal.
    The cumulative distributions are normalised as `Generator.choice` does
    it, so a draw takes the sense `choice(n, p=dist)` takes on that stream."""

    def __init__(self, tilt: float):
        registry = load_registry()
        self.senses: dict[RelationKind, tuple[RelationSense, ...]] = {}
        self.dists: dict[tuple[RelationKind, CoherenceLabel], np.ndarray] = {}
        self.cdfs: dict[tuple[RelationKind, CoherenceLabel], list[float]] = {}
        deltas = {RelationKind.EXPLICIT: _EXPLICIT_DELTA,
                  RelationKind.IMPLICIT: _IMPLICIT_DELTA}
        for kind in RelationKind:
            names = registry.names(kind)
            priors = registry.priors(kind)
            prior = np.array([priors[n] for n in names])
            prior = prior / prior.sum()
            delta = tilt * np.array([deltas[kind].get(n, 0.0) for n in names])
            for label, sign in ((CoherenceLabel.LOW, -1.0),
                                (CoherenceLabel.MEDIUM, 0.0),
                                (CoherenceLabel.HIGH, +1.0)):
                dist = prior + sign * delta
                if (dist < 0).any():
                    raise ValueError(f"tilt {tilt} drives a {kind.value} "
                                     "sense probability negative")
                dist = self.dists[(kind, label)] = dist / dist.sum()
                cdf = dist.cumsum()
                cdf /= cdf[-1]
                self.cdfs[(kind, label)] = cdf.tolist()
            self.senses[kind] = tuple(registry.lookup(n, kind) for n in names)

    def sample(self, rng: np.random.Generator, kind: RelationKind,
               label: CoherenceLabel) -> RelationSense:
        idx = bisect_right(self.cdfs[(kind, label)], rng.random())
        return self.senses[kind][idx]


@functools.lru_cache(maxsize=8)
def _sense_sampler(tilt: float) -> _SenseSampler:
    """The sampler of a tilt, built once and shared, read-only, by every
    call with that tilt: a caller that generates a corpus one document at a
    time builds it once."""
    return _SenseSampler(tilt)


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
    sampler = _sense_sampler(profile.relation_tilt)
    labels = (CoherenceLabel.LOW, CoherenceLabel.MEDIUM, CoherenceLabel.HIGH)
    # the vocabularies of the domains and labels this call reaches, formatted
    # once: every vocabulary token of a document references one of these
    domains = profile.domain_tags[:(n_docs + 2) // 3]
    n_shared, n_own = profile.shared_vocab_size, profile.label_vocab_size
    shared_words = {domain: [f"{domain}-word{i:03d}" for i in range(n_shared)]
                    for domain in domains}
    label_words = {(domain, label): [f"{domain}-{label.as_text}{i:02d}"
                                     for i in range(n_own)]
                   for domain in domains for label in labels[:n_docs]}
    n_tok_low, n_tok_high = profile.tokens_per_sentence
    p_shared = profile.shared_token_prob
    noun_span, pronoun_span = TokenSpan(0, 1), TokenSpan(1, 2)

    docs = []
    for index in range(n_docs):
        label = labels[index % 3]
        domain = profile.domain_tags[(index // 3) % len(profile.domain_tags)]
        rng = _doc_rng(seed, index)
        random, integers = rng.random, rng.integers
        n_sent = int(integers(profile.n_sentences[0],
                              profile.n_sentences[1] + 1))

        # tokens: every sentence opens with a unique noun and a pronoun from
        # a closed class (identical layout for every label), then vocabulary
        # words that carry the (weak) text signal
        pool = rng.choice(profile.entity_pool_size, size=n_sent, replace=False)
        shared, own = shared_words[domain], label_words[(domain, label)]
        sentences, noun_annotations = [], []
        for k, entity in enumerate(pool.tolist(), start=1):
            noun = f"{domain}-thing{entity:03d}"
            words = [noun, _PRONOUNS[integers(len(_PRONOUNS))]]
            words += [shared[integers(n_shared)] if random() < p_shared
                      else own[integers(n_own)]
                      for _ in range(integers(n_tok_low, n_tok_high + 1))]
            sentences.append(Sentence(k, " ".join(words), tuple(words)))
            noun_annotations.append(NounAnnotation(k, noun_span, noun))

        # entity channel: coref links between the noun of sentence k
        # (token 0) and the pronoun of sentence k + 1 (token 1)
        pairs = range(1, n_sent)
        if label is CoherenceLabel.HIGH:
            linked = pairs
        elif label is CoherenceLabel.MEDIUM:
            linked = [k for k in pairs
                      if random() < profile.medium_entity_prob]
        else:
            linked = ()
        coref_links = tuple(
            (Mention(k, noun_span), Mention(k + 1, pronoun_span))
            for k in linked)

        # relation channel: an implicit sense per adjacent pair, plus an
        # explicit one when a connective is present
        relations = []
        for k in pairs:
            kinds = ((RelationKind.IMPLICIT, RelationKind.EXPLICIT)
                     if random() < profile.explicit_prob
                     else (RelationKind.IMPLICIT,))
            for kind in kinds:
                sense = sampler.sample(rng, kind, label)
                direction = None
                if sense.name == "Cause":
                    direction = (CauseDirection.REASON if random() < 0.5
                                 else CauseDirection.RESULT)
                relations.append(RelationAnnotation(k, sense, direction))

        docs.append(Document(
            id=f"synth-{index:05d}",
            sentences=tuple(sentences),
            label=label,
            domain_tag=domain,
            annotations=AnnotationSet(nouns=tuple(noun_annotations),
                                      coref_links=coref_links,
                                      relations=tuple(relations)),
        ).validate())
    return docs
