"""Visibility masking (which flat elements may attend to which) and softmax.

A cell is visible when the elements are the same (diagonal), both are
sentences, or one is a sentence and the other an edge element incident on
that sentence. Everything else is masked out with a large negative additive
constant (a finite stand-in for -inf that keeps masked softmax mass below
1e-12 without producing NaNs).
"""

from __future__ import annotations

import numpy as np

from ..flat import ElementKind, FlatSequence

MASKED = -1e9


class FullyMaskedRowError(AssertionError):
    """A softmax row with no visible entry; impossible for masks built here
    (the diagonal is always visible) and asserted against for foreign masks."""


def visible_matrix(seq: FlatSequence) -> np.ndarray:
    """(n, n) additive mask over {0, MASKED}; symmetric, all-visible diagonal."""
    n = len(seq)
    kinds = np.array([int(el.kind) for el in seq.elements])
    starts = np.array([el.start for el in seq.elements])
    ends = np.array([el.end for el in seq.elements])
    is_sent = kinds == int(ElementKind.SENTENCE)

    # For sentence elements start == end == sentence index.
    sent_idx = starts
    both_sentences = is_sent[:, None] & is_sent[None, :]
    # sentence i-th row vs edge j-th column: edge touches the sentence's index
    edge_touches = (starts[None, :] == sent_idx[:, None]) | \
                   (ends[None, :] == sent_idx[:, None])
    sent_row_edge_col = is_sent[:, None] & ~is_sent[None, :] & edge_touches
    visible = both_sentences | sent_row_edge_col | sent_row_edge_col.T
    np.fill_diagonal(visible, True)

    mask = np.where(visible, 0.0, MASKED)
    return mask


def softmax(z: np.ndarray) -> np.ndarray:
    """Exp-normalize along the last axis, shifted by the maximum for range."""
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def masked_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise softmax of scores + mask, along the last axis.

    mask has the shape of scores or broadcasts to it (one mask for every
    head of a document). Rows sum to 1 over visible entries; masked entries
    underflow to exactly zero. Raises FullyMaskedRowError if any row has no
    visible entry.
    """
    if (mask.ndim != scores.ndim
            or np.broadcast_shapes(scores.shape, mask.shape) != scores.shape):
        raise ValueError(f"shape mismatch: scores {scores.shape} vs mask {mask.shape}")
    if not (mask == 0.0).any(axis=-1).all():
        raise FullyMaskedRowError("softmax row with every entry masked")
    return softmax(scores + mask)
