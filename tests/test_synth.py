"""Synthetic corpus generator: determinism, structure, sense marginals."""

import hashlib
from collections import Counter

import numpy as np
import pytest

from cohgraph.corpus import document_to_record, dumps_canonical, write_corpus
from cohgraph.graph import build_graph
from cohgraph.labels import CoherenceLabel
from cohgraph.relations import RelationKind, load_registry
from cohgraph.synth import (PROFILES, SynthProfile, _doc_rng, _SenseSampler,
                            _sense_sampler, synth_generate)

L, M, H = CoherenceLabel.LOW, CoherenceLabel.MEDIUM, CoherenceLabel.HIGH


def test_same_seed_byte_identical_corpus(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_corpus(synth_generate(40, seed=9), a)
    write_corpus(synth_generate(40, seed=9), b)
    assert a.read_bytes() == b.read_bytes()
    write_corpus(synth_generate(40, seed=10), b)
    assert a.read_bytes() != b.read_bytes()


# The shape of the benchmark's long documents (bench/workloads.py).
LONG = SynthProfile(name="long", n_sentences=(40, 40), explicit_prob=1.0,
                    medium_entity_prob=1.0)


@pytest.mark.parametrize("n_docs,seed,profile,digest", [
    (60, 0, "balanced",
     "9e17de4091dad579d77e35a8298735d75ab69bbb6f66a157ed2685511453e8ac"),
    (60, 7, "balanced",
     "949a8ff2c70869bd0855218e12cf99e066dace69ebfb5d880d40dd10379f0109"),
    (60, 1, "separable",
     "010fdd9cc37b5550c30e69afb8ab7eb1dff3daece6e767d77ffaeb7372d42765"),
    (60, 9, "separable",
     "04cf1e15e5bf41748a540f964a1aea6cd0fb810e9134969908260d5362e5747e"),
    (6, 3, LONG,
     "7c715fac3cdec96d71f9d6c495f9208fbe1dee80c9699c26cf9e379009cdb390"),
], ids=["balanced-0", "balanced-7", "separable-1", "separable-9", "long-3"])
def test_corpus_bytes_are_pinned(tmp_path, n_docs, seed, profile, digest):
    """Corpora are byte-stable: a change to any draw, its bound or its
    order changes these digests, so it can only land on purpose."""
    path = tmp_path / "corpus.jsonl"
    write_corpus(synth_generate(n_docs, seed, profile), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_sense_draws_match_generator_choice():
    """One uniform draw against the cumulative distribution takes the sense
    that Generator.choice(n, p=dist) takes on a twin stream."""
    sampler = _SenseSampler(1.0)
    for (kind, label), dist in sampler.dists.items():
        senses = sampler.senses[kind]
        fast, oracle = _doc_rng(11, int(label)), _doc_rng(11, int(label))
        for _ in range(10_000):
            expected = senses[oracle.choice(len(senses), p=dist)]
            assert sampler.sample(fast, kind, label) is expected, (kind, label)


def test_one_sense_sampler_per_tilt_in_a_bounded_cache():
    """Calls of synth_generate with one tilt share its sampler, which holds
    the same distributions as a fresh one."""
    _sense_sampler.cache_clear()
    synth_generate(3, seed=0)
    synth_generate(3, seed=1, profile=SynthProfile(name="t", relation_tilt=0.5))
    synth_generate(3, seed=2)
    info = _sense_sampler.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (2, 1, 8)
    fresh = _SenseSampler(1.0)
    assert _sense_sampler(1.0).cdfs == fresh.cdfs
    assert _sense_sampler(1.0).senses == fresh.senses


def test_labels_cycle_evenly():
    docs = synth_generate(30, seed=0)
    counts = Counter(d.label for d in docs)
    assert counts == {L: 10, M: 10, H: 10}


def test_entity_edge_structure_by_label():
    """High: one entity edge per adjacent pair; low: none; medium: between."""
    docs = synth_generate(90, seed=1)
    medium_rates = []
    for doc in docs:
        graph = build_graph(doc)
        adjacent = {(e.i, e.j) for e in graph.entity_edges}
        pairs = {(k, k + 1) for k in range(1, len(doc.sentences))}
        if doc.label is H:
            assert pairs <= adjacent
        elif doc.label is L:
            assert not graph.entity_edges
        else:
            medium_rates.append(len(adjacent & pairs) / len(pairs))
    mean_rate = np.mean(medium_rates)
    assert 0.0 < mean_rate < 1.0


def test_relations_cover_every_adjacent_pair():
    for doc in synth_generate(30, seed=2):
        graph = build_graph(doc)
        covered = {e.i for e in graph.relation_edges}
        assert covered == set(range(1, len(doc.sentences)))


def test_low_docs_are_norel_heavy():
    docs = synth_generate(300, seed=3)
    norel = {label: 0 for label in (L, M, H)}
    totals = {label: 0 for label in (L, M, H)}
    for doc in docs:
        for rel in doc.annotations.relations:
            if rel.sense.kind is RelationKind.IMPLICIT:
                totals[doc.label] += 1
                norel[doc.label] += rel.sense.name == "NoRel"
    low_rate = norel[L] / totals[L]
    medium_rate = norel[M] / totals[M]
    high_rate = norel[H] / totals[H]
    assert low_rate > 1.5 * medium_rate
    assert medium_rate > 10 * high_rate


def test_sense_marginals_match_registry_priors():
    """Aggregated over many documents the sense distribution per kind stays
    within 0.03 of the registry fractions (the label tilts cancel)."""
    registry = load_registry()
    docs = synth_generate(10_000, seed=7)
    counts = {kind: Counter() for kind in RelationKind}
    for doc in docs:
        for rel in doc.annotations.relations:
            counts[rel.sense.kind][rel.sense.name] += 1
    for kind in RelationKind:
        total = sum(counts[kind].values())
        for name, prior in registry.priors(kind).items():
            observed = counts[kind][name] / total
            assert observed == pytest.approx(prior, abs=0.03), (kind, name)


def test_token_streams_carry_no_entity_leak():
    """Noun and pronoun token layout is identical across labels: position 0
    is a unique noun, position 1 a closed-class pronoun, for every label."""
    docs = synth_generate(60, seed=5)
    for doc in docs:
        nouns = [s.tokens[0] for s in doc.sentences]
        assert len(set(nouns)) == len(nouns)
        for s in doc.sentences:
            assert s.tokens[1] in ("it", "they", "this", "that", "these")


def test_domain_tags_alternate_and_prefix_vocab():
    docs = synth_generate(12, seed=6)
    tags = {d.domain_tag for d in docs}
    assert tags == {"synthA", "synthB"}
    for doc in docs:
        for sent in doc.sentences:
            for token in sent.tokens[2:]:
                assert token.startswith(f"{doc.domain_tag}-")


def test_documents_validate_and_serialize():
    for doc in synth_generate(12, seed=8):
        doc.validate()
        dumps_canonical(document_to_record(doc))


def test_profiles_registry():
    assert set(PROFILES) == {"balanced", "separable"}
    with pytest.raises(KeyError):
        synth_generate(3, seed=0, profile="unknown")
    with pytest.raises(ValueError):
        synth_generate(0, seed=0)
    with pytest.raises(ValueError):
        SynthProfile(name="bad", shared_token_prob=1.5)


@pytest.mark.parametrize("fields, expect", [
    ({"n_sentences": (401, 401)}, "entity_pool_size"),
    ({"n_sentences": (8, 5)}, "n_sentences"),
    ({"tokens_per_sentence": (9, 6)}, "tokens_per_sentence"),
    ({"entity_pool_size": 0}, "entity_pool_size"),
    ({"n_sentences": (0, 0)}, "n_sentences"),
    ({"shared_vocab_size": 0}, "shared_vocab_size"),
    ({"label_vocab_size": 0}, "label_vocab_size"),
    ({"domain_tags": ()}, "domain_tags"),
], ids=["more-sentences-than-entities", "sentences-reversed",
        "tokens-reversed", "no-entities", "no-sentences", "no-shared-words",
        "no-label-words", "no-domains"])
def test_a_profile_it_cannot_generate_is_refused_naming_the_field(fields,
                                                                 expect):
    with pytest.raises(ValueError, match=expect):
        SynthProfile(name="bad", **fields)


def test_the_widest_profiles_it_accepts_generate():
    """The edges of each range the profile checks generate documents."""
    for profile in (SynthProfile(name="edge", n_sentences=(400, 400)),
                    SynthProfile(name="edge", n_sentences=(1, 1),
                                 tokens_per_sentence=(0, 0),
                                 entity_pool_size=1, shared_vocab_size=1,
                                 label_vocab_size=1, domain_tags=("d",))):
        docs = synth_generate(3, seed=1, profile=profile)
        assert [len(doc.sentences) for doc in docs] == [
            profile.n_sentences[0]] * 3
