"""Keyed Philox streams, the program's one source of random numbers: one
key per (seed, purpose), one stream per coordinate tuple.

The Philox key is (seed, purpose) and the counter of the stream at
coordinates (c1, c2, c3) starts at (0, c1, c2, c3). Philox advances counter
word 0 once per block of four 64-bit words, so word 0 is left to it: streams
at distinct coordinates, or of distinct purposes, never share a run of
draws (not before 2^66 words of one stream).

    purpose  coordinates         what draws there
    DROPOUT  (epoch, step, doc)  a document's dropout masks for a step
    SHUFFLE  (epoch)             the epoch's batch order
    SYNTH    (doc)               synthetic document doc of a corpus
    FOLDS    (salt)              one label group's fold shuffle
    INIT     (layer + 1, field)  an initial tensor; layer 0 outside a layer
"""

from __future__ import annotations

import numpy as np

# purpose words: the second key word of every stream drawn for that purpose
DROPOUT = 1
SHUFFLE = 2
SYNTH = 3
FOLDS = 4
INIT = 5


class KeyedStream:
    """The Philox streams of (seed, purpose), one per coordinate tuple. One
    generator is re-aimed in place per stream, which is the stream a fresh
    generator with that key and counter draws, without its setup cost."""

    def __init__(self, seed: int, purpose: int):
        self._bitgen = np.random.Philox(key=np.array(
            [seed & 0xFFFFFFFFFFFFFFFF, purpose], dtype=np.uint64))
        self._state = self._bitgen.state
        self._counter = self._state["state"]["counter"]

    def at(self, *coords: int) -> np.random.Philox:
        """The bit generator at the start of the stream at coords (at most
        three; missing ones are 0). It is this object's one generator: valid
        until the next call."""
        self._counter[:] = (0, *coords) + (0,) * (3 - len(coords))
        self._bitgen.state = self._state
        return self._bitgen
