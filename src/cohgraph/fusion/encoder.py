"""The fusion model's sentence encoder: tokens -> d_model vector.

A deterministic toy: each token maps to a hash bucket of a seeded embedding
table and the sentence vector is the mean of its token vectors (average
pooling). Sentence vectors and gradients are in the dtype of the token
table, which the model initialises with its other parameters.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


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


class HashBucketSentenceEncoder:
    """Mean of per-token hash-bucket embeddings. The table lives in the
    model parameter store under PARAM_NAME and receives gradients. prepare
    does the static per-sentence work (hashing) once per document; the
    encode and gradient calls take a list of prepared sentences, so a chunk
    of documents is encoded in one call."""

    PARAM_NAME = "encoder/token_embed"

    def __init__(self, d_model: int, n_buckets: int):
        self.d_model = d_model
        self.n_buckets = n_buckets

    def prepare(self, tokens: tuple[str, ...]) -> np.ndarray:
        return np.array([stable_bucket(t, self.n_buckets) for t in tokens],
                        dtype=np.int64)

    def encode_prepared(self, prepared: list[np.ndarray],
                        params: dict[str, np.ndarray]) -> np.ndarray:
        """(len(prepared), d_model): the mean token vector of each prepared
        sentence, zero for a sentence without tokens."""
        table = params[self.PARAM_NAME]
        counts = np.array([p.size for p in prepared], dtype=np.int64)
        out = np.zeros((len(prepared), self.d_model), dtype=table.dtype)
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
