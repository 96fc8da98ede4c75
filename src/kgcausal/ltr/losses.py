"""Ranking objectives: pointwise RMSE, pairwise order loss, and listwise
cross-entropy of top-one probabilities.

Every loss comes with its analytic gradient with respect to the scores, so
the neural trainer can backpropagate and the tests can verify against
central finite differences.  All arithmetic is float64.

:func:`loss_and_grad` takes a stacked score vector cut into segments by
``offsets``, the index where each segment (one record's paths) starts;
without ``offsets`` the whole vector is one segment.  The value is the sum
of the per-segment losses, so the gradient of a stack is the per-segment
gradients side by side.  It checks its inputs, then calls the unchecked
kernel that the trainer calls per minibatch after one check of all records.

The RankNet kernel reads its pairs, not ranks: the (i, j) index arrays, in
row-major order, of every pair where item i ranks better than item j of its
segment.  ``loss_and_grad`` builds them from one boolean mask; the trainer
builds each record's pairs once and gathers them per epoch, as it gathers
rows.  The loss and the sigmoids cost O(pairs); only the gradient's row and
column sums run over an n x n matrix, which keeps their floats those of a
dense kernel.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

RMSE = "rmse"
RANKNET = "ranknet"
LISTNET = "listnet"
LOSS_KINDS = (RMSE, RANKNET, LISTNET)


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


def _rmse(s: np.ndarray, y: np.ndarray, starts: np.ndarray, seg: np.ndarray):
    resid = s - y
    lengths = np.bincount(seg)
    value = np.sqrt(np.add.reduceat(resid ** 2, starts) / lengths)
    # the gradient is taken as zero at a segment's (non-differentiable) exact fit
    scale = np.where(value < 1e-12, np.inf, lengths * value)
    return float(value.sum()), resid / scale[seg]


def _ranknet(s: np.ndarray, pairs, starts: np.ndarray, seg: np.ndarray):
    i, j = pairs
    diff = s[i] - s[j]
    # Python's sum in row order adds the terms in the order of a loop over
    # every (i, j), so the value is bit-identical to such a reference loop.
    loss = float(sum(np.logaddexp(0.0, -diff).tolist()))
    # sigmoid(-(s_i - s_j)), computed stably on both tails
    decay = np.exp(-np.abs(diff))
    weighted = np.zeros((s.size, s.size))
    weighted[i, j] = np.where(diff >= 0, decay, 1.0) / (1.0 + decay)
    # Each item's terms are summed along a row and a column of an n x n
    # matrix in numpy's order, so the floats equal a dense n x n kernel's.
    return loss, -weighted.sum(axis=1) + weighted.sum(axis=0)


def _listnet(s: np.ndarray, p: np.ndarray, starts: np.ndarray, seg: np.ndarray):
    q, log_q = _segment_softmax(s, starts, seg)
    return float(-(p * log_q).sum()), q - p


# Unchecked: (scores, _stack_target's target, starts, seg) -> (loss, gradient)
_KERNELS = {RMSE: _rmse, RANKNET: _ranknet, LISTNET: _listnet}


def _stack_target(loss_kind: str, n: int, targets, ranks, starts, seg) -> np.ndarray:
    """The checked kernel input for ``n`` stacked items: the (i, j) index
    arrays, in row-major order, of the pairs where item i ranks better than
    item j of its segment (RankNet), the targets (RMSE) or their per-segment
    top-one distribution (ListNet)."""
    if loss_kind == RANKNET:
        r = _check_ranks(ranks, starts, seg)
        return np.nonzero((seg[:, None] == seg[None, :]) & (r[:, None] < r[None, :]))
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != (n,) or n == 0:
        raise ValueError("scores and targets must be equal-length and non-empty")
    return y if loss_kind == RMSE else _segment_softmax(y, starts, seg)[0]


def loss_and_grad(loss_kind: str, scores: Sequence[float],
                  targets: Optional[Sequence[float]] = None,
                  ranks: Optional[Sequence[int]] = None,
                  offsets: Optional[Sequence[int]] = None) -> tuple[float, np.ndarray]:
    """Summed loss over the segments and its gradient with respect to the
    scores.  RMSE and ListNet read ``targets``; RankNet reads ``ranks``, a
    permutation of 1..k within each segment, rank 1 the most relevant."""
    s = np.asarray(scores, dtype=np.float64)
    starts, seg = _segments(s.size, offsets)
    target = _stack_target(loss_kind, s.size, targets, ranks, starts, seg)
    return _KERNELS[loss_kind](s, target, starts, seg)

