"""Sentence encoders: tokens -> d_model vector.

The shipped encoder is a deterministic toy: each token maps to a hash bucket
of a seeded embedding table and the sentence vector is the mean of its token
vectors (average pooling). The interface is small on purpose so a pretrained
encoder can be slotted in later: anything with the same three methods works.
Sentence vectors and gradients are in the dtype of the token table, which
the model initialises with its other parameters.
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


def add_rows_at(table: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """np.add.at(table, ids, rows) for a C-contiguous 2-D table, scattered
    into its flat view: every cell receives the same additions in the same
    order, on numpy's much faster 1-D path."""
    if not table.flags.c_contiguous:
        raise ValueError("add_rows_at needs a C-contiguous table")
    d = table.shape[1]
    np.add.at(table.reshape(-1), (ids[:, None] * d + np.arange(d)).ravel(),
              rows.ravel())


class SentenceEncoder(Protocol):
    """tokens -> d_model vector, with a prepare step so static per-sentence
    work (hashing, tokenizer lookups) can be done once per document. The
    encode and gradient calls take a list of prepared sentences, so a chunk
    of documents is encoded in one call. The parameters it reads and
    accumulates gradients into are the model's: the model names, shapes
    and initialises them (expected_param_shapes) and trains them with the
    rest."""

    d_model: int

    def prepare(self, tokens: tuple[str, ...]): ...

    def encode_prepared(self, prepared: list,
                        params: dict[str, np.ndarray]) -> np.ndarray: ...

    def accumulate_grad_prepared(self, prepared: list, dvecs: np.ndarray,
                                 grads: dict[str, np.ndarray]) -> None: ...


class HashBucketSentenceEncoder:
    """Mean of per-token hash-bucket embeddings. The table lives in the
    model parameter store under PARAM_NAME and receives gradients."""

    PARAM_NAME = "encoder/token_embed"

    def __init__(self, d_model: int, n_buckets: int):
        self.d_model = d_model
        self.n_buckets = n_buckets
        self.saw_empty = False

    def buckets(self, tokens: tuple[str, ...]) -> list[int]:
        return [stable_bucket(t, self.n_buckets) for t in tokens]

    def prepare(self, tokens: tuple[str, ...]) -> np.ndarray:
        return np.array(self.buckets(tokens), dtype=np.int64)

    def encode_prepared(self, prepared: list[np.ndarray],
                        params: dict[str, np.ndarray]) -> np.ndarray:
        """(len(prepared), d_model): the mean token vector of each prepared
        sentence, zero for a sentence without tokens."""
        table = params[self.PARAM_NAME]
        counts = np.array([p.size for p in prepared], dtype=np.int64)
        out = np.zeros((len(prepared), self.d_model), dtype=table.dtype)
        if (counts == 0).any():
            self.saw_empty = True
            logger.warning("encoding an empty token list; emitting a zero vector")
        full = counts > 0
        if full.any():
            rows = table[np.concatenate(prepared)]
            starts = np.cumsum(counts) - counts
            out[full] = (np.add.reduceat(rows, starts[full], axis=0)
                         / counts[full, None].astype(table.dtype))
        return out

    def accumulate_grad_prepared(self, prepared: list[np.ndarray],
                                 dvecs: np.ndarray,
                                 grads: dict[str, np.ndarray]) -> None:
        """Add the gradient of encode_prepared(prepared) under the output
        gradient dvecs (len(prepared), d_model) into grads."""
        if not prepared:
            return
        counts = np.array([p.size for p in prepared], dtype=np.int64)
        weights = np.maximum(counts, 1).astype(dvecs.dtype)
        add_rows_at(grads[self.PARAM_NAME], np.concatenate(prepared),
                    np.repeat(dvecs / weights[:, None], counts, axis=0))
