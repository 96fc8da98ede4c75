"""Small next-token language model used as a feature extractor.

A token embedding matrix feeds a linear softmax head that predicts the next
token from the previous n-1 tokens.  After training, the embedding rows are
mean-pooled into dense features, and every 1..n-gram is hashed to a slot of
a fixed-size count vector for tree-based models.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..util import stable_hash

logger = logging.getLogger(__name__)

UNK = "<unk>"
DEFAULT_EMBED_DIM = 128
DEFAULT_HASH_DIM = 1024
BATCH_SIZE = 256
# The largest n-gram order a model may have: hashed_slots holds n shifted
# copies of every token sequence.
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
        """The model :meth:`to_dict` wrote, checked: its order, a vocab that
        holds UNK, and one embedding row of width ``d`` per vocab entry."""
        vocab = {tok: i for i, tok in enumerate(d["vocab"])}
        if UNK not in vocab:
            raise ValueError(f"language model vocab must hold {UNK}")
        embeddings = np.asarray(d["embeddings"], dtype=np.float64)
        if embeddings.shape != (len(vocab), d["d"]):
            raise ValueError(f"language model embeddings must have shape "
                             f"({len(vocab)}, {d['d']!r}), not {embeddings.shape}")
        return cls(n=checked_order(d["n"]), d=d["d"], seed=d["seed"], vocab=vocab,
                   embeddings=embeddings)


def _context_windows(sequences: Sequence[Sequence[str]], n: int):
    """(context tokens, target token) pairs for every usable position."""
    for seq in sequences:
        for i in range(n - 1, len(seq)):
            yield tuple(seq[i - (n - 1):i]), seq[i]


def train_ngram_lm(corpus: Sequence[Sequence[str]], n: int = 2, d: int = DEFAULT_EMBED_DIM,
                   seed: int = 0, epochs: int = 10, learning_rate: float = 0.5,
                   min_count: int = 1) -> NgramLM:
    """Fit the model by minibatch gradient descent on next-token cross-entropy.

    ``n`` is at most MAX_ORDER.  Deterministic in ``seed``; the per-epoch
    mean loss is kept on the model so callers can check it went down.
    Tokens seen fewer than ``min_count`` times share the UNK entry, which
    keeps downstream features free of one-off token noise.
    """
    checked_order(n)
    if not corpus or all(len(s) < n for s in corpus):
        raise ValueError("corpus must contain at least one sequence of length >= n")
    counts: dict[str, int] = {}
    for seq in corpus:
        for tok in seq:
            counts[tok] = counts.get(tok, 0) + 1
    tokens = sorted(tok for tok, c in counts.items() if c >= min_count)
    vocab = {tok: i for i, tok in enumerate(tokens)}
    vocab[UNK] = len(vocab)
    vocab_size = len(vocab)
    unk = vocab[UNK]

    windows = list(_context_windows(corpus, n))
    contexts = np.array([[vocab.get(t, unk) for t in ctx] for ctx, _ in windows],
                        dtype=np.int64)
    targets = np.array([vocab.get(t, unk) for _, t in windows], dtype=np.int64)

    rng = np.random.default_rng(seed)
    embeddings = rng.normal(0.0, 0.1, size=(vocab_size, d))
    output_weights = rng.normal(0.0, 0.1, size=(d, vocab_size))

    n_samples = len(targets)
    # one buffer per step product, so a step allocates no (rows x V) array
    logits_buf = np.empty((min(BATCH_SIZE, n_samples), vocab_size))
    column_buf = np.empty((len(logits_buf), 1))
    dx_buf = np.empty((len(logits_buf), d))
    grad_w = np.empty((d, vocab_size))
    loss_history: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(n_samples)
        total = 0.0
        for start in range(0, n_samples, BATCH_SIZE):
            batch = order[start:start + BATCH_SIZE]
            ctx = contexts[batch]
            tgt = targets[batch]
            x = embeddings[ctx].mean(axis=1)
            probs, column, dx = logits_buf[:len(tgt)], column_buf[:len(tgt)], dx_buf[:len(tgt)]
            np.matmul(x, output_weights, out=probs)
            np.maximum.reduce(probs, axis=1, keepdims=True, out=column)
            probs -= column
            np.exp(probs, out=probs)
            np.add.reduce(probs, axis=1, keepdims=True, out=column)
            probs /= column
            batch_loss = -np.log(np.maximum(probs[np.arange(len(tgt)), tgt], 1e-300))
            total += batch_loss.sum()

            dlogits = probs
            dlogits[np.arange(len(tgt)), tgt] -= 1.0
            dlogits /= len(tgt)
            np.matmul(x.T, dlogits, out=grad_w)
            np.matmul(dlogits, output_weights.T, out=dx)
            dx /= n - 1
            grad_w *= learning_rate
            output_weights -= grad_w
            dx *= learning_rate
            np.subtract.at(embeddings, ctx.reshape(-1), np.repeat(dx, n - 1, axis=0))
        mean_loss = total / n_samples
        loss_history.append(float(mean_loss))
        logger.debug("lm epoch %d: loss %.4f", epoch + 1, mean_loss)

    return NgramLM(n=n, d=d, seed=seed, vocab=vocab, embeddings=embeddings,
                   output_weights=output_weights, loss_history=loss_history)


# N-grams whose slot is kept, per hash_dim; a table is emptied when full.
_SLOTS_LIMIT = 1 << 14
_slot_tables: dict[int, dict[tuple[str, ...], int]] = {}


def hashed_slots(tokens: Sequence[str], n: int, hash_dim: int = DEFAULT_HASH_DIM) -> list[int]:
    """The hashed slot of every 1..n-gram, shortest n-grams first."""
    table = _slot_tables.setdefault(hash_dim, {})
    tokens = tuple(tokens)
    shifted = [tokens[i:] for i in range(n)]
    ngrams = []
    for order in range(1, n + 1):
        ngrams += zip(*shifted[:order])
    slots = list(map(table.get, ngrams))
    if None in slots:
        for i, slot in enumerate(slots):
            if slot is None:
                if len(table) >= _SLOTS_LIMIT:
                    table.clear()
                slots[i] = table[ngrams[i]] = stable_hash(*ngrams[i]) % hash_dim
    return slots


def dense_features(lm: NgramLM, tokens: Sequence[str]) -> np.ndarray:
    """Mean of the tokens' embedding rows (UNK row for unseen tokens)."""
    if not tokens:
        raise ValueError("tokens must be non-empty")
    idx = np.array([lm.token_index(t) for t in tokens], dtype=np.int64)
    return lm.embeddings[idx].mean(axis=0)
