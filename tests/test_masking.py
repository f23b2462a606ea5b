"""Visibility mask and masked softmax against brute-force predicates, and
the model's global-local row structure against the mask."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohgraph.flat import ElementKind, FlatElement, FlatSequence, linearize
from cohgraph.fusion.masking import (MASKED, FullyMaskedRowError,
                                     masked_softmax, visible_matrix)
from cohgraph.fusion.model import ContractError, FusionModel
from cohgraph.graph import build_graph

from conftest import make_demo_document, tiny_model_config
from oracles import slot_order
from test_graph import random_document


def oracle_visible(seq: FlatSequence) -> np.ndarray:
    """Direct per-cell evaluation of the four visibility conditions."""
    els = seq.elements
    n = len(els)
    out = np.full((n, n), MASKED)
    for i in range(n):
        for j in range(n):
            a, b = els[i], els[j]
            c1 = i == j
            c2 = (a.kind is ElementKind.SENTENCE
                  and b.kind is ElementKind.SENTENCE)
            c3 = c4 = False
            for sent, other in ((a, b), (b, a)):
                if sent.kind is not ElementKind.SENTENCE:
                    continue
                k = sent.payload
                touches = other.start == k or other.end == k
                if other.kind is ElementKind.ENTITY and touches:
                    c3 = True
                if other.kind is ElementKind.RELATION and touches:
                    c4 = True
            if c1 or c2 or c3 or c4:
                out[i, j] = 0.0
    return out


def random_flat_sequence(rng: np.random.Generator) -> FlatSequence:
    doc = random_document(rng, "mask")
    seq = linearize(build_graph(doc))
    if len(seq) == seq.n_sentences and rng.random() < 0.5:
        # make edge-free cases rarer; attach a synthetic entity element
        extra = FlatElement(ElementKind.ENTITY, "pad", 1, seq.n_sentences)
        if seq.n_sentences > 1:
            seq = FlatSequence(seq.elements + (extra,), seq.n_sentences)
    return seq


class TestVisibleMatrix:
    def test_diagonal_always_visible(self):
        seq = linearize(build_graph(make_demo_document()))
        mask = visible_matrix(seq)
        assert np.array_equal(np.diag(mask), np.zeros(len(seq)))

    def test_demo_relation_visibility(self):
        """The (1,2) relation sees s1 and s2 only; everything else masked."""
        seq = linearize(build_graph(make_demo_document()))
        mask = visible_matrix(seq)
        r1 = 5  # four sentences, then (1,2) entity, then (1,2) relation
        assert seq.elements[r1].kind is ElementKind.RELATION
        assert seq.elements[r1].start, seq.elements[r1].end == (1, 2)
        visible_to = {idx for idx in range(len(seq))
                      if mask[r1, idx] == 0.0}
        assert visible_to == {0, 1, r1}  # s1, s2, itself
        for idx in range(len(seq)):
            if idx not in visible_to:
                assert mask[r1, idx] == MASKED

    def test_random_sequences_match_predicate_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            seq = random_flat_sequence(rng)
            np.testing.assert_array_equal(visible_matrix(seq),
                                          oracle_visible(seq))

    def test_symmetry(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            mask = visible_matrix(random_flat_sequence(rng))
            np.testing.assert_array_equal(mask, mask.T)


class TestMaskedSoftmax:
    def test_uniform_over_visible_set(self):
        """Zero scores spread mass equally over the visible entries."""
        mask = np.array([[0.0, 0.0, MASKED],
                         [0.0, 0.0, 0.0],
                         [MASKED, 0.0, 0.0]])
        probs = masked_softmax(np.zeros((3, 3)), mask)
        np.testing.assert_allclose(probs[0], [0.5, 0.5, 0.0])
        np.testing.assert_allclose(probs[1], [1 / 3] * 3)
        np.testing.assert_allclose(probs[2], [0.0, 0.5, 0.5])

    def test_single_element(self):
        np.testing.assert_array_equal(
            masked_softmax(np.array([[3.7]]), np.zeros((1, 1))), [[1.0]])

    def test_random_rows_sum_to_one_and_masked_mass_vanishes(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            scores = rng.normal(0, 3, (n, n))
            visible = rng.random((n, n)) < 0.5
            np.fill_diagonal(visible, True)
            mask = np.where(visible, 0.0, MASKED)
            probs = masked_softmax(scores, mask)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
            assert probs[~visible].max(initial=0.0) < 1e-12
            # independent exp-normalize oracle over the visible entries
            for i in range(n):
                row = np.where(visible[i], scores[i], -np.inf)
                expected = np.exp(row - row[visible[i]].max())
                expected[~visible[i]] = 0.0
                expected /= expected.sum()
                np.testing.assert_allclose(probs[i], expected, atol=1e-12)

    def test_fully_masked_row_asserts(self):
        mask = np.array([[0.0, 0.0], [MASKED, MASKED]])
        with pytest.raises(FullyMaskedRowError):
            masked_softmax(np.zeros((2, 2)), mask)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            masked_softmax(np.zeros((2, 2)), np.zeros((3, 3)))


_KEY_MODEL = FusionModel.build(tiny_model_config())


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), permute=st.booleans())
def test_global_local_key_sets_equal_the_visible_matrix(seed, permute):
    """The keys prepare_sequence gives each row are exactly the ones
    visible_matrix allows, in any element order: each sentence row's
    visible slots, and each edge row's {itself, sentence(start),
    sentence(end)}."""
    seq = random_flat_sequence(np.random.default_rng(seed))
    # random_flat_sequence draws its document first from the same stream
    doc = random_document(np.random.default_rng(seed), "mask")
    if permute:
        shuffle = np.random.default_rng(seed + 1).permutation(len(seq))
        seq = FlatSequence(tuple(seq.elements[i] for i in shuffle),
                           seq.n_sentences)
    ctx = _KEY_MODEL.prepare_sequence(doc, seq)
    visible = visible_matrix(seq) == 0.0
    order = slot_order(seq)
    n_sent = len(ctx.sentences)
    assert n_sent == sum(el.kind is ElementKind.SENTENCE
                         for el in seq.elements)
    np.testing.assert_array_equal(ctx.visible,
                                  visible[order[:n_sent, None], order])
    for e, row in enumerate(order[n_sent:]):
        el = seq.elements[row]
        keys = order[ctx.edge_keys[e].astype(np.intp)]
        assert keys[0] == row
        assert [seq.elements[i].start for i in keys[1:]] == [el.start, el.end]
        assert set(keys) == set(np.flatnonzero(visible[row]))


@pytest.mark.parametrize("start, end", [(2, 9), (0, 1), (3, 3)])
def test_edge_without_two_sentences_is_a_contract_error(start, end):
    """An edge that names a sentence the sequence lacks, or links a
    sentence to itself, is refused with the document's id."""
    doc = make_demo_document()
    seq = linearize(build_graph(doc))
    bad = FlatSequence(
        seq.elements + (FlatElement(ElementKind.ENTITY, "ghost", start, end),),
        seq.n_sentences)
    with pytest.raises(ContractError, match="demo-0001"):
        _KEY_MODEL.prepare_sequence(doc, bad)
