"""Keyed streams: one key per (seed, purpose), one stream per coordinate
tuple, and no two of them one stream shifted."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cohgraph.keyed import DROPOUT, FOLDS, INIT, SHUFFLE, SYNTH, KeyedStream

from conftest import _shares_a_shifted_run

PURPOSES = (DROPOUT, SHUFFLE, SYNTH, FOLDS, INIT)

SEEDS = st.integers(-2 ** 63, 2 ** 64 - 1)
COORDS = st.lists(st.integers(0, 2 ** 63), min_size=1, max_size=3)


def test_purpose_words_are_distinct():
    assert len(set(PURPOSES)) == len(PURPOSES)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, coords=COORDS, axis=st.integers(0, 2),
       purpose=st.sampled_from(PURPOSES))
def test_neighbouring_coordinates_share_no_shifted_run(seed, coords, axis,
                                                       purpose):
    """The streams at coordinates c and c + 1 (in any of the three
    coordinate words) are not one stream shifted."""
    coords = coords + [0] * (3 - len(coords))
    after = list(coords)
    after[axis] += 1
    x = KeyedStream(seed, purpose).at(*coords).random_raw(40)
    y = KeyedStream(seed, purpose).at(*after).random_raw(40)
    assert not _shares_a_shifted_run(x, y)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, coords=COORDS,
       purposes=st.permutations(PURPOSES).map(lambda p: p[:2]))
def test_distinct_purposes_share_no_shifted_run(seed, coords, purposes):
    """Two purposes' streams at the same coordinates are not one stream
    shifted."""
    x, y = (KeyedStream(seed, p).at(*coords).random_raw(40) for p in purposes)
    assert not _shares_a_shifted_run(x, y)


def test_at_re_aims_one_generator_to_a_fresh_generators_stream():
    """at() returns the object's one generator, at the start of the stream
    a fresh Philox with key (seed, purpose) and counter (0, *coords) draws,
    whatever was drawn from it before."""
    streams = KeyedStream(11, INIT)
    first = streams.at(2, 5)
    first.random_raw(7)
    assert streams.at(1) is first
    for coords in ((2, 5), (1,), (0, 0, 9)):
        want = np.random.Philox(key=np.array([11, INIT], dtype=np.uint64),
                                counter=[0, *coords, *[0] * (3 - len(coords))])
        np.testing.assert_array_equal(streams.at(*coords).random_raw(40),
                                      want.random_raw(40))
