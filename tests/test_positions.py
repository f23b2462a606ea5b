"""Sinusoid encodings and relative position embeddings."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cohgraph.flat import ElementKind, FlatElement, FlatSequence
from cohgraph.fusion.positions import (distance_indices, position_embedding,
                                       sinusoid_table, unique_distance_rows)

from oracles import (named_distances, oracle_pair_embedding,
                     oracle_pair_features, sinusoid)

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
    """The table is formed in one broadcast; every row, odd widths
    included, is exactly the per-distance sinusoid."""
    for max_distance, d_model in [(5, 6), (128, 32), (128, 256), (3, 5),
                                  (40, 7)]:
        table = sinusoid_table(max_distance, d_model)
        assert table.shape == (2 * max_distance + 1, d_model)
        for row, dist in enumerate(range(-max_distance, max_distance + 1)):
            np.testing.assert_array_equal(table[row], sinusoid(dist, d_model))


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


@given(spans=st.lists(st.tuples(st.integers(1, 12), st.integers(0, 5)),
                      min_size=1, max_size=14),
       max_distance=st.one_of(st.integers(1, 3), st.just(40_000)))
def test_unique_rows_rebuild_distance_indices(spans, max_distance):
    """pos_rows[pos_inv] is exactly distance_indices, with one row per
    distinct tuple; spans wider than max_distance make clipping fire, and a
    max distance whose (2 * max + 1) ** 4 exceeds int64 must not overflow
    the packed keys."""
    seq = FlatSequence(tuple(FlatElement(ElementKind.ENTITY, "e", start,
                                         start + width)
                             for start, width in spans), 1)
    dist_idx = distance_indices(seq, max_distance)
    pos_rows, pos_inv = unique_distance_rows(dist_idx)
    assert pos_inv.shape == (len(seq), len(seq))
    np.testing.assert_array_equal(pos_rows[pos_inv], dist_idx)
    assert len(np.unique(pos_rows, axis=0)) == len(pos_rows)


def _W_p(d_model=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(0, 0.2, (4 * d_model, d_model))


def _embed(seq, W_p, max_distance=16):
    """(features, embeddings) of every pair, row i * n + j for (i, j),
    gathered from the distance-tuple rows the model computes."""
    d_model = W_p.shape[1]
    pos_rows, pos_inv = unique_distance_rows(
        distance_indices(seq, max_distance))
    feats, pe = position_embedding(sinusoid_table(max_distance, d_model),
                                   pos_rows, W_p)
    n = len(seq)
    return (feats[pos_inv].reshape(n * n, -1),
            pe[pos_inv].reshape(n * n, -1))


def test_self_pair_embedding():
    """Equal elements give concat(p(0) x4) @ W_p."""
    W_p = _W_p()
    el = _sentence(3)
    expected = np.concatenate([sinusoid(0, 8)] * 4) @ W_p
    _, pe = _embed(FlatSequence((el,), 1), W_p)
    np.testing.assert_array_equal(pe[0], expected)


def test_random_pairs_match_named_distance_oracle():
    rng = np.random.default_rng(99)
    W_p = _W_p()
    for _ in range(50):
        i, j = rng.integers(1, 12, size=2)
        a = (_sentence(int(i)) if rng.random() < 0.5
             else FlatElement(ElementKind.ENTITY, "e", int(min(i, j)),
                              int(max(i, j) + 1)))
        b = (_sentence(int(j)) if rng.random() < 0.5 else _relation_at(int(j)))
        _, pe = _embed(FlatSequence((a, b), 1), W_p)
        np.testing.assert_allclose(pe[1], oracle_pair_embedding(a, b, W_p, 16),
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
