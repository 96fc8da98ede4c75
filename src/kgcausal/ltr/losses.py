"""Ranking objectives: pointwise RMSE, pairwise order loss, and listwise
cross-entropy of top-one probabilities.

Every loss comes with its analytic gradient with respect to the scores, so
the neural trainer can backpropagate and the tests can verify against
central finite differences.  All arithmetic is float64.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

RMSE = "rmse"
RANKNET = "ranknet"
LISTNET = "listnet"
LOSS_KINDS = (RMSE, RANKNET, LISTNET)


def _as_float(values: Sequence[float]) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


def _check_ranks(ranks: Sequence[int], k: int) -> np.ndarray:
    arr = np.asarray(ranks, dtype=np.int64)
    if sorted(arr.tolist()) != list(range(1, k + 1)):
        raise ValueError(f"ranks must be a permutation of 1..{k}")
    return arr


def loss_rmse(scores: Sequence[float], targets: Sequence[float]) -> float:
    """Root mean squared difference between scores and targets."""
    s = _as_float(scores)
    y = _as_float(targets)
    if s.shape != y.shape or s.size == 0:
        raise ValueError("scores and targets must be equal-length and non-empty")
    return float(np.sqrt(np.mean((s - y) ** 2)))


def loss_rmse_grad(scores: Sequence[float], targets: Sequence[float]) -> np.ndarray:
    """d(rmse)/d(scores); zero at the (non-differentiable) exact fit."""
    s = _as_float(scores)
    y = _as_float(targets)
    value = np.sqrt(np.mean((s - y) ** 2))
    if value < 1e-12:
        return np.zeros_like(s)
    return (s - y) / (s.size * value)


def ranknet_terms(scores: Sequence[float], ranks: Sequence[int]) -> list[float]:
    """One softplus term per ordered pair whose first item ranks better.

    Rank 1 is the most relevant item; each term log(1 + exp(-(s_i - s_j)))
    pushes the better-ranked item's score above the worse-ranked one.  The
    loop is the reference that :func:`loss_ranknet` is tested against.
    """
    s = _as_float(scores)
    r = _check_ranks(ranks, len(s))
    terms = []
    for i in range(len(s)):
        for j in range(len(s)):
            if r[i] < r[j]:
                terms.append(float(np.logaddexp(0.0, -(s[i] - s[j]))))
    return terms


def _ranknet_pairs(scores: Sequence[float], ranks: Sequence[int]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(s_i - s_j, whether i ranks better than j) over every ordered pair."""
    s = _as_float(scores)
    r = _check_ranks(ranks, len(s))
    return s[:, None] - s[None, :], r[:, None] < r[None, :]


def loss_ranknet(scores: Sequence[float], ranks: Sequence[int]) -> float:
    """Pairwise order loss summed over all k(k-1)/2 preference pairs."""
    diff, better = _ranknet_pairs(scores, ranks)
    # Python's sum in row order adds the terms as ranknet_terms lists them,
    # so the value is bit-identical to the reference loop.
    return float(sum(np.logaddexp(0.0, -diff)[better].tolist()))


def loss_ranknet_grad(scores: Sequence[float], ranks: Sequence[int]) -> np.ndarray:
    diff, better = _ranknet_pairs(scores, ranks)
    # sigmoid(-(s_i - s_j)), computed stably on both tails
    decay = np.exp(-np.abs(diff))
    sig = np.where(diff >= 0, decay / (1.0 + decay), 1.0 / (1.0 + decay))
    weighted = sig * better
    return -weighted.sum(axis=1) + weighted.sum(axis=0)


def _softmax(values: np.ndarray) -> np.ndarray:
    shifted = values - values.max()
    expd = np.exp(shifted)
    return expd / expd.sum()


def loss_listnet(scores: Sequence[float], targets: Sequence[float]) -> float:
    """Cross entropy between the target and score top-one distributions."""
    s = _as_float(scores)
    y = _as_float(targets)
    if s.shape != y.shape or s.size == 0:
        raise ValueError("scores and targets must be equal-length and non-empty")
    p = _softmax(y)
    log_q = s - s.max()
    log_q = log_q - np.log(np.exp(log_q).sum())
    return float(-(p * log_q).sum())


def loss_listnet_grad(scores: Sequence[float], targets: Sequence[float]) -> np.ndarray:
    s = _as_float(scores)
    y = _as_float(targets)
    return _softmax(s) - _softmax(y)
