"""Small next-token language model used as a feature extractor.

The mean of the previous n-1 tokens' embedding rows scores the next token
against one output row per vocabulary entry.  Training uses a sampled
softmax, which scores each target against a few drawn negatives instead of
the whole vocabulary.  After training, the embedding rows are mean-pooled
into dense features, and every 1..n-gram is hashed to a slot of a fixed-size
count vector for tree-based models.  :func:`hashed_slots` keeps nothing; the
GBDT's feature reader keeps the slots of each ranker-input piece
(``ltr.models``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..util import _field, number_array, stable_hash

logger = logging.getLogger(__name__)

UNK = "<unk>"
DEFAULT_EMBED_DIM = 128
DEFAULT_HASH_DIM = 1024
BATCH_SIZE = 256
# Negatives drawn per minibatch for the sampled softmax; 20 were too few for
# the planted motif to rank first on held-out records.
SAMPLED = 64
# The largest n-gram order a model may have: hashed_slots hashes up to n
# n-grams at every token.
MAX_ORDER = 16


def checked_order(n) -> int:
    """``n`` when it is an integer n-gram order from 1 to MAX_ORDER."""
    if type(n) is not int or not 1 <= n <= MAX_ORDER:
        raise ValueError(f"n-gram order must be an integer from 1 to {MAX_ORDER}, not {n!r}")
    return n


@dataclass
class NgramLM:
    """Trained model: vocab and embeddings.  ``output_weights`` and
    ``loss_history`` are training state, which no model file holds."""

    n: int
    d: int
    seed: int
    vocab: dict[str, int]
    embeddings: np.ndarray
    output_weights: Optional[np.ndarray] = None
    loss_history: list[float] = field(default_factory=list)

    def token_index(self, token: str) -> int:
        return self.vocab.get(token, self.vocab[UNK])

    def to_dict(self) -> dict:
        return {"n": self.n, "d": self.d, "seed": self.seed,
                "vocab": sorted(self.vocab, key=self.vocab.get),
                "embeddings": self.embeddings.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "NgramLM":
        """The model :meth:`to_dict` wrote, checked: its order, an integer
        ``d`` and ``seed``, a vocab that holds UNK, and one embedding row of
        width ``d`` per vocab entry."""
        for key in ("d", "seed"):
            _field(int)(d[key], f"language model {key}")
        vocab = {tok: i for i, tok in enumerate(d["vocab"])}
        if UNK not in vocab:
            raise ValueError(f"language model vocab must hold {UNK}")
        embeddings = number_array(d["embeddings"], "language model embeddings")
        if embeddings.shape != (len(vocab), d["d"]):
            raise ValueError(f"language model embeddings must have shape "
                             f"({len(vocab)}, {d['d']!r}), not {embeddings.shape}")
        return cls(n=checked_order(d["n"]), d=d["d"], seed=d["seed"], vocab=vocab,
                   embeddings=embeddings)


def _vocab_and_windows(corpus: Sequence[Sequence[str]], n: int, min_count: int
                       ) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """The vocabulary, the tokens seen at least ``min_count`` times in sorted
    order and then UNK, and the vocab ids of every window's ``n - 1``
    context tokens and target, sequence by sequence and position by
    position.  A token spelled like UNK is UNK.  Each token is looked up
    once; the windows are index arithmetic over the sequences' offsets in
    the flattened corpus."""
    first_seen: dict[str, int] = {}
    flat = np.fromiter((first_seen.setdefault(tok, len(first_seen))
                        for seq in corpus for tok in seq), dtype=np.int64)
    counts = np.bincount(flat, minlength=len(first_seen))
    kept = sorted(tok for tok, i in first_seen.items() if counts[i] >= min_count and tok != UNK)
    vocab = {tok: i for i, tok in enumerate(kept)}
    vocab[UNK] = len(vocab)
    to_vocab = np.full(len(first_seen), vocab[UNK], dtype=np.int64)
    to_vocab[[first_seen[tok] for tok in kept]] = np.arange(len(kept))
    flat = to_vocab[flat]

    lengths = np.fromiter(map(len, corpus), dtype=np.int64, count=len(corpus))
    windows = np.maximum(lengths - (n - 1), 0)
    # a window's target position: its sequence's first target position plus
    # its place among that sequence's windows
    firsts = np.cumsum(lengths) - lengths + (n - 1)
    before = np.cumsum(windows) - windows
    targets = np.arange(windows.sum()) + np.repeat(firsts - before, windows)
    contexts = flat[targets[:, None] - (n - 1) + np.arange(n - 1)]
    return vocab, contexts, flat[targets]


@np.errstate(over="ignore", invalid="ignore")
def train_ngram_lm(corpus: Sequence[Sequence[str]], n: int = 2, d: int = DEFAULT_EMBED_DIM,
                   seed: int = 0, epochs: int = 10, learning_rate: float = 0.5,
                   min_count: int = 1) -> NgramLM:
    """Fit the model by minibatch gradient descent on sampled-softmax
    next-token cross-entropy.

    Each minibatch draws SAMPLED negatives, with replacement, from the
    targets' unigram counts to the power 0.75, shared by its rows.  A row's
    logits are its target's and the negatives', each less log(SAMPLED * q)
    for its draw probability q; a negative equal to the row's target is left
    out.  So a step costs O(rows x SAMPLED x d) whatever the vocabulary size
    (Jean et al., ACL 2015).  Copies of one drawn token share a column.
    ``n`` is at most MAX_ORDER.  Deterministic in ``seed``; the per-epoch
    mean sampled loss is kept on the model so callers can check it went
    down.  Tokens seen fewer than ``min_count`` times share the UNK entry,
    which keeps downstream features free of one-off token noise.  The fit
    stops with a ValueError at its first epoch whose mean loss is not finite.
    """
    checked_order(n)
    if not corpus or all(len(s) < n for s in corpus):
        raise ValueError("corpus must contain at least one sequence of length >= n")
    vocab, contexts, targets = _vocab_and_windows(corpus, n, min_count)
    vocab_size = len(vocab)

    rng = np.random.default_rng(seed)
    embeddings = rng.normal(0.0, 0.1, size=(vocab_size, d))
    output_rows = rng.normal(0.0, 0.1, size=(vocab_size, d))
    draw_weights = np.bincount(targets, minlength=vocab_size) ** 0.75
    draw_cdf = np.cumsum(draw_weights)
    with np.errstate(divide="ignore"):  # tokens never drawn: log 0
        log_expected = np.log(SAMPLED * draw_weights / draw_cdf[-1])

    # divisor of the mean of a window's context rows; an order-1 model has
    # none, so it scores every window from the zero vector and its
    # embeddings keep their initial draw
    context_mean = max(n - 1, 1)
    n_samples = len(targets)
    loss_history: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(n_samples)
        total = 0.0
        for start in range(0, n_samples, BATCH_SIZE):
            batch = order[start:start + BATCH_SIZE]
            ctx = contexts[batch]
            tgt = targets[batch]
            # one column per distinct drawn token, its logit raised by the log
            # of its copies: the loss of one column per draw, in fewer columns
            negatives, copies = np.unique(
                np.searchsorted(draw_cdf, rng.random(SAMPLED) * draw_cdf[-1], side="right"),
                return_counts=True)
            x = embeddings[ctx].sum(axis=1)
            x /= context_mean
            w_tgt = output_rows[tgt]
            w_neg = output_rows[negatives]
            # the target's logits apart from the negatives', so that both
            # arrays are contiguous; probabilities then overwrite them
            tgt_p = np.einsum("ij,ij->i", x, w_tgt)
            tgt_p -= log_expected[tgt]
            neg_p = x @ w_neg.T
            neg_p -= log_expected[negatives] - np.log(copies)
            np.copyto(neg_p, -np.inf, where=negatives == tgt[:, None])
            top = neg_p.max(axis=1)
            np.maximum(top, tgt_p, out=top)
            neg_p -= top[:, None]
            np.exp(neg_p, out=neg_p)
            tgt_p -= top
            np.exp(tgt_p, out=tgt_p)
            norm = neg_p.sum(axis=1)
            norm += tgt_p
            neg_p /= norm[:, None]
            tgt_p /= norm
            total -= np.log(np.maximum(tgt_p, 1e-300)).sum()

            # gradient of the mean loss with respect to each logit
            tgt_p -= 1.0
            tgt_p /= len(tgt)
            neg_p /= len(tgt)
            dx = tgt_p[:, None] * w_tgt
            dx += neg_p @ w_neg
            dx /= context_mean
            grad_rows = np.concatenate([tgt_p[:, None] * x, neg_p.T @ x])
            grad_rows *= learning_rate
            _subtract_rows(output_rows, np.concatenate([tgt, negatives]), grad_rows)
            dx *= learning_rate
            _subtract_rows(embeddings, ctx.reshape(-1), np.repeat(dx, n - 1, axis=0))
        mean_loss = total / n_samples
        if not np.isfinite(mean_loss):
            raise ValueError(f"train_ngram_lm: epoch {epoch + 1} mean loss is {mean_loss}")
        loss_history.append(float(mean_loss))
        logger.debug("lm epoch %d: loss %.4f", epoch + 1, mean_loss)

    return NgramLM(n=n, d=d, seed=seed, vocab=vocab, embeddings=embeddings,
                   output_weights=output_rows.T, loss_history=loss_history)


def _subtract_rows(matrix: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``matrix[rows] -= values``, a repeated row taking each of its values in
    turn, as ``np.subtract.at(matrix, rows, values)`` does; a 1-D ufunc.at
    over flat indices runs about three times faster than the 2-D one."""
    width = matrix.shape[1]
    flat = (rows[:, None] * width + np.arange(width)).reshape(-1)
    np.subtract.at(matrix.reshape(-1), flat, values.reshape(-1))


def hashed_slots(tokens: Sequence[str], n: int, hash_dim: int = DEFAULT_HASH_DIM,
                 ahead: Sequence[str] = ()) -> list[int]:
    """The hashed slot of every 1..n-gram that starts in ``tokens`` and ends
    within ``tokens`` followed by ``ahead``, shortest n-grams first, each
    order by start; with ``ahead`` empty, the slots of every 1..n-gram of
    ``tokens``."""
    seq = (*tokens, *ahead)
    return [stable_hash(*seq[start:start + order]) % hash_dim
            for order in range(1, n + 1)
            for start in range(min(len(tokens), len(seq) - order + 1))]


def dense_features(lm: NgramLM, tokens: Sequence[str]) -> np.ndarray:
    """Mean of the tokens' embedding rows (UNK row for unseen tokens)."""
    if not tokens:
        raise ValueError("tokens must be non-empty")
    idx = np.array([lm.token_index(t) for t in tokens], dtype=np.int64)
    return lm.embeddings[idx].mean(axis=0)
