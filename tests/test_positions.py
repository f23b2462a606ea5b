"""Sinusoid encodings and relative position embeddings."""

import numpy as np
import pytest

from cohgraph.flat import ElementKind, FlatElement, FlatSequence
from cohgraph.fusion.positions import (distance_indices, position_embedding,
                                       sinusoid, sinusoid_table)

from oracles import named_distances, oracle_pair_embedding, oracle_pair_features

# Reference evaluation of the sinusoid formula for distance 3, d_model 8,
# computed independently at 30-digit precision and rounded to float64.
SINUSOID_3_8 = np.array([
    0.14112000805986722, -0.98999249660044546,
    0.29552020666133958, 0.95533648912560602,
    0.029995500202495661, 0.99955003374898752,
    0.002999995500002025, 0.999995500003375,
])


def test_zero_distance():
    """sin 0 = 0 and cos 0 = 1 in alternating slots."""
    assert np.array_equal(sinusoid(0, 4), [0.0, 1.0, 0.0, 1.0])


def test_sign_parity():
    """Negating the distance negates even (sin) slots and keeps odd (cos)."""
    for d in (1, 2, 17, 128):
        plus = sinusoid(d, 8)
        minus = sinusoid(-d, 8)
        assert np.allclose(minus[0::2], -plus[0::2], atol=0, rtol=0)
        assert np.allclose(minus[1::2], plus[1::2], atol=0, rtol=0)


def test_reference_vector():
    np.testing.assert_allclose(sinusoid(3, 8), SINUSOID_3_8, rtol=0, atol=1e-16)


def test_table_rows_match_direct_eval():
    table = sinusoid_table(5, 6)
    assert table.shape == (11, 6)
    for row, dist in enumerate(range(-5, 6)):
        np.testing.assert_array_equal(table[row], sinusoid(dist, 6))


def _sentence(k):
    return FlatElement(ElementKind.SENTENCE, k, k, k)


def _relation_at(i, payload="rel"):
    return FlatElement(ElementKind.RELATION, payload, i, i + 1)


def _distances(a, b, max_distance):
    """Clipped distances from a to b as read back from distance_indices."""
    idx = distance_indices(FlatSequence((a, b), 1), max_distance)
    return tuple(int(d) - max_distance for d in idx[0, 1])


def test_sentence_vs_relation_distances():
    """s1 at (1,1) against r1 at (1,2) has distances (0, -1, 0, -1)."""
    a, b = _sentence(1), _relation_at(1)
    assert _distances(a, b, 128) == named_distances(a, b, 128) == (0, -1, 0, -1)


def test_distances_clip():
    far = FlatElement(ElementKind.ENTITY, "x", 1, 300)
    near = _sentence(1)
    assert (_distances(near, far, 128) == named_distances(near, far, 128)
            == (0, -128, 0, -128))
    assert (_distances(far, near, 128) == named_distances(far, near, 128)
            == (0, 0, 128, 128))


def _W_p(d_model=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(0, 0.2, (4 * d_model, d_model))


def _embed(seq, W_p, max_distance=16, activation="none"):
    """(features, embeddings) of every pair, row i * n + j for (i, j)."""
    d_model = W_p.shape[1]
    feats, _, pe = position_embedding(sinusoid_table(max_distance, d_model),
                                      distance_indices(seq, max_distance),
                                      W_p, activation)
    return feats, pe


def test_self_pair_embedding():
    """Equal elements give concat(p(0) x4) @ W_p."""
    W_p = _W_p()
    el = _sentence(3)
    expected = np.concatenate([sinusoid(0, 8)] * 4) @ W_p
    _, pe = _embed(FlatSequence((el,), 1), W_p)
    np.testing.assert_array_equal(pe[0], expected)


@pytest.mark.parametrize("activation", ["none", "relu"])
def test_random_pairs_match_named_distance_oracle(activation):
    rng = np.random.default_rng(99)
    W_p = _W_p()
    for _ in range(50):
        i, j = rng.integers(1, 12, size=2)
        a = (_sentence(int(i)) if rng.random() < 0.5
             else FlatElement(ElementKind.ENTITY, "e", int(min(i, j)),
                              int(max(i, j) + 1)))
        b = (_sentence(int(j)) if rng.random() < 0.5 else _relation_at(int(j)))
        _, pe = _embed(FlatSequence((a, b), 1), W_p, activation=activation)
        np.testing.assert_allclose(pe[1],
                                   oracle_pair_embedding(a, b, W_p, 16,
                                                         activation),
                                   rtol=0, atol=1e-15)


def test_sequence_features_match_pair_features():
    from cohgraph.graph import build_graph
    from cohgraph.flat import linearize
    from conftest import make_demo_document

    W_p = _W_p(d_model=6)
    seq = linearize(build_graph(make_demo_document()))
    feats, pe = _embed(seq, W_p)
    n = len(seq)
    for i, a in enumerate(seq.elements):
        for j, b in enumerate(seq.elements):
            np.testing.assert_array_equal(feats[i * n + j],
                                          oracle_pair_features(a, b, 16, 6))
            np.testing.assert_allclose(pe[i * n + j],
                                       oracle_pair_embedding(a, b, W_p, 16),
                                       rtol=0, atol=1e-15)
