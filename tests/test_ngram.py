"""Language-model feature extractor tests."""

from __future__ import annotations

import numpy as np
import pytest

from kgcausal.ltr.ngram import (
    BATCH_SIZE,
    UNK,
    _context_windows,
    dense_features,
    hashed_slots,
    train_ngram_lm,
)


def predicts_every_next_token(lm, sequence):
    """True when the model's argmax after each full context is the held token."""
    tokens = sorted(lm.vocab, key=lm.vocab.get)
    context = lm.n - 1
    for i in range(context, len(sequence)):
        logits = dense_features(lm, sequence[i - context:i]) @ lm.output_weights
        if tokens[int(np.argmax(logits))] != sequence[i]:
            return False
    return True


class TestTraining:
    def test_learns_degenerate_alternating_corpus(self):
        sequence = ["a", "b"] * 20
        lm = train_ngram_lm([sequence], n=2, d=16, seed=0, epochs=30, learning_rate=1.0)
        assert predicts_every_next_token(lm, sequence)

    def test_loss_decreases(self):
        corpus = [["x", "y", "z", "x", "y", "z"] for _ in range(5)]
        lm = train_ngram_lm(corpus, n=2, d=8, seed=1, epochs=10)
        assert lm.loss_history[-1] < lm.loss_history[0]

    def test_deterministic_in_seed(self):
        corpus = [["a", "b", "c", "a", "c"]]
        one = train_ngram_lm(corpus, n=2, d=8, seed=5, epochs=3)
        two = train_ngram_lm(corpus, n=2, d=8, seed=5, epochs=3)
        assert np.array_equal(one.embeddings, two.embeddings)
        assert np.array_equal(one.output_weights, two.output_weights)
        other = train_ngram_lm(corpus, n=2, d=8, seed=6, epochs=3)
        assert not np.array_equal(one.embeddings, other.embeddings)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_ngram_lm([], n=2, d=8, seed=0)
        with pytest.raises(ValueError):
            train_ngram_lm([["solo"]], n=2, d=8, seed=0)

    def test_trigram_contexts(self):
        corpus = [["a", "b", "c", "d"] * 5]
        lm = train_ngram_lm(corpus, n=3, d=8, seed=0, epochs=20, learning_rate=1.0)
        assert predicts_every_next_token(lm, corpus[0])


def reference_lm(corpus, n, d, seed, epochs, learning_rate, min_count):
    """The training loop as first written, with a fresh array for every
    intermediate: (embeddings, output weights, loss history)."""
    counts = {}
    for seq in corpus:
        for tok in seq:
            counts[tok] = counts.get(tok, 0) + 1
    kept = sorted(tok for tok, c in counts.items() if c >= min_count)
    vocab = {tok: i for i, tok in enumerate(kept)}
    vocab[UNK] = len(vocab)
    unk = vocab[UNK]
    windows = list(_context_windows(corpus, n))
    contexts = np.array([[vocab.get(t, unk) for t in ctx] for ctx, _ in windows], dtype=np.int64)
    targets = np.array([vocab.get(t, unk) for _, t in windows], dtype=np.int64)
    rng = np.random.default_rng(seed)
    embeddings = rng.normal(0.0, 0.1, size=(len(vocab), d))
    output_weights = rng.normal(0.0, 0.1, size=(d, len(vocab)))
    history = []
    for _ in range(epochs):
        order = rng.permutation(len(targets))
        total = 0.0
        for start in range(0, len(targets), BATCH_SIZE):
            batch = order[start:start + BATCH_SIZE]
            ctx, tgt = contexts[batch], targets[batch]
            x = embeddings[ctx].mean(axis=1)
            logits = x @ output_weights
            shifted = logits - logits.max(axis=1, keepdims=True)
            expd = np.exp(shifted)
            probs = expd / expd.sum(axis=1, keepdims=True)
            total += (-np.log(np.maximum(probs[np.arange(len(tgt)), tgt], 1e-300))).sum()
            dlogits = probs
            dlogits[np.arange(len(tgt)), tgt] -= 1.0
            dlogits /= len(tgt)
            grad_w = x.T @ dlogits
            dx = dlogits @ output_weights.T / (n - 1)
            output_weights -= learning_rate * grad_w
            np.subtract.at(embeddings, ctx.reshape(-1),
                           learning_rate * np.repeat(dx, n - 1, axis=0))
        history.append(float(total / len(targets)))
    return embeddings, output_weights, history


def random_corpus(n, n_windows, seed):
    """Sequences over a skewed 80-token vocabulary with exactly ``n_windows``
    context windows of order ``n``, and some too short to give any."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, 81)
    corpus = [[f"t{i}" for i in rng.choice(80, size=n - 1, p=weights / weights.sum())]]
    while n_windows:
        length = min(n_windows, int(rng.integers(1, 12)))
        n_windows -= length
        corpus.append([f"t{i}" for i in rng.choice(80, size=length + n - 1,
                                                     p=weights / weights.sum())])
    return corpus


class TestTrainerIsBitExact:
    """The in-place step against the loop with fresh arrays, in one process."""

    @pytest.mark.parametrize("n_windows", [50, 2 * BATCH_SIZE, 2 * BATCH_SIZE + 37],
                             ids=["under-one-batch", "whole-batches", "partial-last-batch"])
    @pytest.mark.parametrize("min_count", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equals_the_reference_loop(self, n, min_count, n_windows):
        corpus = random_corpus(n, n_windows, seed=n * 10 + min_count)
        lm = train_ngram_lm(corpus, n=n, d=24, seed=4, epochs=3, learning_rate=0.7,
                            min_count=min_count)
        embeddings, output_weights, history = reference_lm(
            corpus, n=n, d=24, seed=4, epochs=3, learning_rate=0.7, min_count=min_count)
        assert len(list(_context_windows(corpus, n))) == n_windows
        assert lm.embeddings.tobytes() == embeddings.tobytes()
        assert lm.output_weights.tobytes() == output_weights.tobytes()
        assert lm.loss_history == history


@pytest.fixture
def toy_lm():
    return train_ngram_lm([["a", "b", "c", "a", "b"]], n=2, d=8, seed=2, epochs=2)


class TestFeatures:
    def test_unseen_token_uses_unk_row(self, toy_lm):
        unk_row = toy_lm.embeddings[toy_lm.vocab[UNK]]
        assert np.array_equal(dense_features(toy_lm, ["never-seen"]), unk_row)

    def test_single_token_dense_is_embedding_row(self, toy_lm):
        row = toy_lm.embeddings[toy_lm.vocab["a"]]
        assert np.array_equal(dense_features(toy_lm, ["a"]), row)

    def test_two_token_dense_is_midpoint(self, toy_lm):
        expected = (toy_lm.embeddings[toy_lm.vocab["a"]]
                    + toy_lm.embeddings[toy_lm.vocab["b"]]) / 2.0
        assert np.allclose(dense_features(toy_lm, ["a", "b"]), expected)

    def test_permutation_changes_hashed_not_dense(self, toy_lm):
        forward, backward = ["a", "b", "c"], ["c", "b", "a"]
        assert np.allclose(dense_features(toy_lm, forward), dense_features(toy_lm, backward))
        assert sorted(hashed_slots(forward, toy_lm.n)) != sorted(hashed_slots(backward, toy_lm.n))

    def test_hashed_counts_total(self):
        slots = hashed_slots(["a", "b", "c"], n=2, hash_dim=64)
        # three unigrams plus two bigrams
        assert len(slots) == 5
        assert min(slots) >= 0

    def test_hashed_deterministic_across_calls(self):
        one = hashed_slots(["x", "y"], n=2, hash_dim=32)
        two = hashed_slots(["x", "y"], n=2, hash_dim=32)
        assert one == two

    def test_empty_tokens_rejected(self, toy_lm):
        with pytest.raises(ValueError):
            dense_features(toy_lm, [])

    def test_vocab_contains_unk(self, toy_lm):
        assert UNK in toy_lm.vocab

    def test_serialization_round_trip(self, toy_lm):
        from kgcausal.ltr.ngram import NgramLM
        clone = NgramLM.from_dict(toy_lm.to_dict())
        assert clone.vocab == toy_lm.vocab
        assert np.array_equal(clone.embeddings, toy_lm.embeddings)
        assert set(toy_lm.to_dict()) == {"n", "d", "seed", "vocab", "embeddings"}
        assert clone.output_weights is None
