"""Ranking objectives: pointwise RMSE, pairwise order loss, and listwise
cross-entropy of top-one probabilities.

Every loss comes with its analytic gradient with respect to the scores, so
the neural trainer can backpropagate and the tests can verify against
central finite differences.  All arithmetic is float64.

:func:`loss_and_grad` takes a stacked score vector cut into segments by
``offsets``, the index where each segment (one record's paths) starts;
without ``offsets`` the whole vector is one segment.  The value is the sum
of the per-segment losses, so the gradient of a stack is the per-segment
gradients side by side.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

RMSE = "rmse"
RANKNET = "ranknet"
LISTNET = "listnet"
LOSS_KINDS = (RMSE, RANKNET, LISTNET)


def _as_float(values: Sequence[float]) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


def _segments(n: int, offsets: Optional[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Start of each segment and the segment of each item."""
    seg = np.zeros(n, dtype=np.int64)
    if offsets is None:
        return np.zeros(1, dtype=np.int64), seg
    starts = np.asarray(offsets, dtype=np.int64)
    if (starts.ndim != 1 or starts.size == 0 or starts[0] != 0
            or starts[-1] >= n or (starts[1:] <= starts[:-1]).any()):
        raise ValueError(f"offsets must rise strictly from 0 and stay below {n}")
    seg[starts[1:]] = 1
    return starts, np.cumsum(seg)


def _check_ranks(ranks: Sequence[int], starts: np.ndarray, seg: np.ndarray) -> np.ndarray:
    arr = np.asarray(ranks, dtype=np.int64)
    if arr.shape != seg.shape or (
            arr[np.lexsort((arr, seg))] != np.arange(seg.size) - starts[seg] + 1).any():
        raise ValueError("ranks must be a permutation of 1..k within each segment")
    return arr


def _segment_softmax(values: np.ndarray, starts: np.ndarray, seg: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment softmax and its logarithm."""
    shifted = values - np.maximum.reduceat(values, starts)[seg]
    expd = np.exp(shifted)
    total = np.add.reduceat(expd, starts)
    return expd / total[seg], shifted - np.log(total)[seg]


def loss_and_grad(loss_kind: str, scores: Sequence[float],
                  targets: Optional[Sequence[float]] = None,
                  ranks: Optional[Sequence[int]] = None,
                  offsets: Optional[Sequence[int]] = None) -> tuple[float, np.ndarray]:
    """Summed loss over the segments and its gradient with respect to the
    scores.  RMSE and ListNet read ``targets``; RankNet reads ``ranks``, a
    permutation of 1..k within each segment, rank 1 the most relevant."""
    s = _as_float(scores)
    starts, seg = _segments(s.size, offsets)
    if loss_kind == RANKNET:
        r = _check_ranks(ranks, starts, seg)
        diff = s[:, None] - s[None, :]
        better = (seg[:, None] == seg[None, :]) & (r[:, None] < r[None, :])
        # Python's sum in row order adds the terms as ranknet_terms lists them,
        # so the value is bit-identical to the reference loop.
        loss = float(sum(np.logaddexp(0.0, -diff[better]).tolist()))
        # sigmoid(-(s_i - s_j)), computed stably on both tails
        decay = np.exp(-np.abs(diff))
        sig = np.where(diff >= 0, decay / (1.0 + decay), 1.0 / (1.0 + decay))
        weighted = sig * better
        return loss, -weighted.sum(axis=1) + weighted.sum(axis=0)
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    y = _as_float(targets)
    if s.shape != y.shape or s.size == 0:
        raise ValueError("scores and targets must be equal-length and non-empty")
    if loss_kind == RMSE:
        resid = s - y
        lengths = np.bincount(seg)
        value = np.sqrt(np.add.reduceat(resid ** 2, starts) / lengths)
        # the gradient is taken as zero at a segment's (non-differentiable) exact fit
        scale = np.where(value < 1e-12, np.inf, lengths * value)
        return float(value.sum()), resid / scale[seg]
    p, _ = _segment_softmax(y, starts, seg)
    q, log_q = _segment_softmax(s, starts, seg)
    return float(-(p * log_q).sum()), q - p


def ranknet_terms(scores: Sequence[float], ranks: Sequence[int]) -> list[float]:
    """One softplus term per ordered pair whose first item ranks better.

    Rank 1 is the most relevant item; each term log(1 + exp(-(s_i - s_j)))
    pushes the better-ranked item's score above the worse-ranked one.  The
    loop is the reference that :func:`loss_and_grad`'s RankNet value is
    tested against.
    """
    s = _as_float(scores)
    starts, seg = _segments(s.size, None)
    r = _check_ranks(ranks, starts, seg)
    terms = []
    for i in range(len(s)):
        for j in range(len(s)):
            if r[i] < r[j]:
                terms.append(float(np.logaddexp(0.0, -(s[i] - s[j]))))
    return terms

