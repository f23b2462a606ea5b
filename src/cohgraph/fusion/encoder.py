"""Sentence encoders: tokens -> d_model vector.

The shipped encoder is a deterministic toy: each token maps to a hash bucket
of a seeded embedding table and the sentence vector is the mean of its token
vectors (average pooling). The interface is small on purpose so a pretrained
encoder can be slotted in later: anything with the same four methods works.
"""

from __future__ import annotations

import functools
import hashlib
import logging
from typing import Protocol

import numpy as np

logger = logging.getLogger(__name__)


@functools.lru_cache(maxsize=1 << 16)
def stable_bucket(text: str, n_buckets: int) -> int:
    """Platform-stable hash bucket (blake2b, not the randomized builtin hash).

    Memoized: a corpus repeats its tokens and every fit re-prepares it, and
    the bounded cache holds at most 65,536 (text, n_buckets) entries."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_buckets


class SentenceEncoder(Protocol):
    """tokens -> d_model vector, with a prepare step so static per-sentence
    work (hashing, tokenizer lookups) can be done once per document. The
    encode and gradient calls take a list of prepared sentences, so a chunk
    of documents is encoded in one call."""

    d_model: int
    trainable: bool

    def init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]: ...

    def prepare(self, tokens: tuple[str, ...]): ...

    def encode_prepared(self, prepared: list,
                        params: dict[str, np.ndarray]) -> np.ndarray: ...

    def accumulate_grad_prepared(self, prepared: list, dvecs: np.ndarray,
                                 grads: dict[str, np.ndarray]) -> None: ...


class HashBucketSentenceEncoder:
    """Mean of per-token hash-bucket embeddings.

    With trainable=True the table lives in the model parameter store under
    PARAM_NAME and receives gradients; with trainable=False a frozen copy is
    kept here and init_params contributes nothing.
    """

    PARAM_NAME = "encoder/token_embed"

    def __init__(self, d_model: int, n_buckets: int, trainable: bool = True,
                 init_scale: float = 0.5):
        self.d_model = d_model
        self.n_buckets = n_buckets
        self.trainable = trainable
        self.init_scale = init_scale
        self._frozen_table: np.ndarray | None = None
        self.saw_empty = False

    def _make_table(self, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(0.0, self.init_scale,
                          (self.n_buckets, self.d_model)).astype(np.float64)

    def init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        table = self._make_table(rng)
        if self.trainable:
            return {self.PARAM_NAME: table}
        self._frozen_table = table
        return {}

    def _table(self, params: dict[str, np.ndarray]) -> np.ndarray:
        if self.trainable:
            return params[self.PARAM_NAME]
        assert self._frozen_table is not None, "encoder used before init_params"
        return self._frozen_table

    def buckets(self, tokens: tuple[str, ...]) -> list[int]:
        return [stable_bucket(t, self.n_buckets) for t in tokens]

    def prepare(self, tokens: tuple[str, ...]) -> np.ndarray:
        return np.array(self.buckets(tokens), dtype=np.int64)

    def encode_prepared(self, prepared: list[np.ndarray],
                        params: dict[str, np.ndarray]) -> np.ndarray:
        """(len(prepared), d_model): the mean token vector of each prepared
        sentence, zero for a sentence without tokens."""
        counts = np.array([p.size for p in prepared], dtype=np.int64)
        out = np.zeros((len(prepared), self.d_model), dtype=np.float64)
        if (counts == 0).any():
            self.saw_empty = True
            logger.warning("encoding an empty token list; emitting a zero vector")
        full = counts > 0
        if full.any():
            rows = self._table(params)[np.concatenate(prepared)]
            starts = np.cumsum(counts) - counts
            out[full] = (np.add.reduceat(rows, starts[full], axis=0)
                         / counts[full, None])
        return out

    def accumulate_grad_prepared(self, prepared: list[np.ndarray],
                                 dvecs: np.ndarray,
                                 grads: dict[str, np.ndarray]) -> None:
        """Add the gradient of encode_prepared(prepared) under the output
        gradient dvecs (len(prepared), d_model) into grads."""
        if not self.trainable or not prepared:
            return
        counts = np.array([p.size for p in prepared], dtype=np.int64)
        np.add.at(grads[self.PARAM_NAME], np.concatenate(prepared),
                  np.repeat(dvecs / np.maximum(counts, 1)[:, None], counts,
                            axis=0))
