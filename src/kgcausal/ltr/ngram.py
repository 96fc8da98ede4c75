"""Small next-token language model used as a feature extractor.

A token embedding matrix feeds a linear softmax head that predicts the next
token from the previous n-1 tokens.  After training, the embedding rows are
mean-pooled into dense features, and every 1..n-gram is hashed to a slot of
a fixed-size count vector for tree-based models.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..util import stable_hash

logger = logging.getLogger(__name__)

UNK = "<unk>"
DEFAULT_EMBED_DIM = 128
DEFAULT_HASH_DIM = 1024
BATCH_SIZE = 256


@dataclass
class NgramLM:
    """Trained model: vocab, embedding matrix, and output weights."""

    n: int
    d: int
    seed: int
    vocab: dict[str, int]
    embeddings: np.ndarray
    output_weights: np.ndarray
    loss_history: list[float] = field(default_factory=list)

    def token_index(self, token: str) -> int:
        return self.vocab.get(token, self.vocab[UNK])

    def to_dict(self) -> dict:
        ordered = sorted(self.vocab.items(), key=lambda kv: kv[1])
        return {
            "n": self.n,
            "d": self.d,
            "seed": self.seed,
            "vocab": [tok for tok, _ in ordered],
            "embeddings": self.embeddings.tolist(),
            "output_weights": self.output_weights.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NgramLM":
        vocab = {tok: i for i, tok in enumerate(d["vocab"])}
        return cls(
            n=d["n"],
            d=d["d"],
            seed=d["seed"],
            vocab=vocab,
            embeddings=np.asarray(d["embeddings"], dtype=np.float64),
            output_weights=np.asarray(d["output_weights"], dtype=np.float64),
        )


def _context_windows(sequences: Sequence[Sequence[str]], n: int):
    """(context tokens, target token) pairs for every usable position."""
    for seq in sequences:
        for i in range(n - 1, len(seq)):
            yield tuple(seq[i - (n - 1):i]), seq[i]


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def train_ngram_lm(corpus: Sequence[Sequence[str]], n: int = 2, d: int = DEFAULT_EMBED_DIM,
                   seed: int = 0, epochs: int = 10, learning_rate: float = 0.5,
                   min_count: int = 1) -> NgramLM:
    """Fit the model by minibatch gradient descent on next-token cross-entropy.

    Deterministic in ``seed``; the per-epoch mean loss is kept on the model
    so callers can check it went down.  Tokens seen fewer than ``min_count``
    times share the UNK entry, which keeps downstream features free of
    one-off token noise.
    """
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
    loss_history: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(n_samples)
        total = 0.0
        for start in range(0, n_samples, BATCH_SIZE):
            batch = order[start:start + BATCH_SIZE]
            ctx = contexts[batch]
            tgt = targets[batch]
            x = embeddings[ctx].mean(axis=1)
            probs = _softmax_rows(x @ output_weights)
            batch_loss = -np.log(np.maximum(probs[np.arange(len(tgt)), tgt], 1e-300))
            total += batch_loss.sum()

            dlogits = probs
            dlogits[np.arange(len(tgt)), tgt] -= 1.0
            dlogits /= len(tgt)
            grad_w = x.T @ dlogits
            dx = dlogits @ output_weights.T / (n - 1)
            output_weights -= learning_rate * grad_w
            np.subtract.at(embeddings, ctx.reshape(-1),
                           learning_rate * np.repeat(dx, n - 1, axis=0))
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
