"""Language-model feature extractor tests."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from kgcausal.ltr.ngram import (
    BATCH_SIZE,
    SAMPLED,
    UNK,
    _vocab_and_windows,
    dense_features,
    hashed_slots,
    train_ngram_lm,
)


def _context_windows(sequences, n):
    """(context tokens, target token) pairs for every usable position."""
    for seq in sequences:
        for i in range(n - 1, len(seq)):
            yield tuple(seq[i - (n - 1):i]), seq[i]


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

    def test_token_spelled_like_unk_trains_the_unk_row(self):
        lm = train_ngram_lm([[UNK, "a", UNK, "b"]], n=2, d=4, seed=0, epochs=2)
        assert lm.vocab == {"a": 0, "b": 1, UNK: 2}
        assert lm.embeddings.shape == (3, 4)

    def test_order_one_keeps_the_initial_embeddings(self):
        """An order-1 model has no context rows to train: every window is
        scored from the zero vector, and the loss stays finite."""
        lm = train_ngram_lm([["a", "b", "a", "c"]], n=1, d=8, seed=3, epochs=2)
        initial = np.random.default_rng(3).normal(0.0, 0.1, size=(len(lm.vocab), 8))
        assert np.array_equal(lm.embeddings, initial)
        assert len(lm.loss_history) == 2 and np.all(np.isfinite(lm.loss_history))

    def test_fit_allocates_no_rows_by_vocabulary_array(self):
        """A step's cost may not grow with the vocabulary: one epoch over
        20,000 distinct tokens allocates less than a BATCH_SIZE x V float64
        array (41 MB) at its peak."""
        tokens = [f"w{i}" for i in np.random.default_rng(0).permutation(20_000)]
        corpus = [tokens[i:i + 10] for i in range(0, len(tokens), 10)]
        tracemalloc.start()
        try:
            lm = train_ngram_lm(corpus, n=2, d=8, seed=0, epochs=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(lm.vocab) == 20_001
        assert peak < BATCH_SIZE * len(lm.vocab) * 8


@pytest.mark.parametrize("min_count", [1, 2, 99])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_vocab_and_windows_equal_the_window_tuples(n, min_count):
    """The vocabulary and window ids equal those of a dict count and a
    tuple per window, over sequences shorter than a window and tokens that
    sort by code point; a token spelled like UNK is UNK."""
    rng = np.random.default_rng(n * 7 + min_count)
    alphabet = ["a", "b", "B", "é", "a\x00", "", "中", "ab", UNK]
    corpus = [[alphabet[i] for i in rng.integers(0, len(alphabet), size=length)]
              for length in rng.integers(0, 9, size=40)]
    counts = {}
    for seq in corpus:
        for tok in seq:
            counts[tok] = counts.get(tok, 0) + 1
    expected = {tok: i for i, tok in enumerate(sorted(t for t, c in counts.items()
                                                      if c >= min_count and t != UNK))}
    expected[UNK] = len(expected)
    windows = list(_context_windows(corpus, n))
    vocab, contexts, targets = _vocab_and_windows(corpus, n, min_count)
    assert list(vocab.items()) == list(expected.items())
    unk = expected[UNK]
    assert contexts.dtype == targets.dtype == np.int64
    assert contexts.shape == (len(windows), n - 1)
    assert contexts.tolist() == [[expected.get(t, unk) for t in ctx] for ctx, _ in windows]
    assert targets.tolist() == [expected.get(t, unk) for _, t in windows]


def reference_lm(corpus, n, d, seed, epochs, learning_rate, min_count, group_copies=True):
    """The sampled-softmax training loop written plainly, with a fresh array
    for every intermediate and a 2-D ``np.subtract.at`` for every update:
    (embeddings, output weights, loss history).  With ``group_copies``
    false, every draw has its own column, as in the loss's definition.  At
    n = 1 the context is empty and its mean is the zero vector."""
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
    output_rows = rng.normal(0.0, 0.1, size=(len(vocab), d))
    weights = np.bincount(targets, minlength=len(vocab)) ** 0.75
    cdf = np.cumsum(weights)
    with np.errstate(divide="ignore"):
        log_expected = np.log(SAMPLED * weights / cdf[-1])
    history = []
    for _ in range(epochs):
        order = rng.permutation(len(targets))
        total = 0.0
        for start in range(0, len(targets), BATCH_SIZE):
            batch = order[start:start + BATCH_SIZE]
            ctx, tgt = contexts[batch], targets[batch]
            negatives = np.searchsorted(cdf, rng.random(SAMPLED) * cdf[-1], side="right")
            copies = np.ones(SAMPLED)
            if group_copies:
                negatives, copies = np.unique(negatives, return_counts=True)
            x = embeddings[ctx].sum(axis=1) / max(n - 1, 1)
            w_tgt, w_neg = output_rows[tgt], output_rows[negatives]
            tgt_logit = np.einsum("ij,ij->i", x, w_tgt) - log_expected[tgt]
            neg_logits = x @ w_neg.T - (log_expected[negatives] - np.log(copies))
            neg_logits[negatives[None, :] == tgt[:, None]] = -np.inf
            top = np.maximum(neg_logits.max(axis=1), tgt_logit)
            tgt_exp = np.exp(tgt_logit - top)
            neg_exp = np.exp(neg_logits - top[:, None])
            norm = neg_exp.sum(axis=1) + tgt_exp
            tgt_p, neg_p = tgt_exp / norm, neg_exp / norm[:, None]
            total -= np.log(np.maximum(tgt_p, 1e-300)).sum()
            d_tgt = (tgt_p - 1.0) / len(tgt)
            d_neg = neg_p / len(tgt)
            dx = (d_tgt[:, None] * w_tgt + d_neg @ w_neg) / max(n - 1, 1)
            grad_rows = np.concatenate([d_tgt[:, None] * x, d_neg.T @ x])
            np.subtract.at(output_rows, np.concatenate([tgt, negatives]),
                           learning_rate * grad_rows)
            np.subtract.at(embeddings, ctx.reshape(-1),
                           learning_rate * np.repeat(dx, n - 1, axis=0))
        history.append(float(total / len(targets)))
    return embeddings, output_rows.T, history


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
    """The sampled-softmax step against the plain loop, in one process."""

    @pytest.mark.parametrize("n_windows", [50, 2 * BATCH_SIZE, 2 * BATCH_SIZE + 37],
                             ids=["under-one-batch", "whole-batches", "partial-last-batch"])
    @pytest.mark.parametrize("min_count", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
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

    def test_copies_sharing_a_column_change_only_rounding(self):
        corpus = random_corpus(2, 2 * BATCH_SIZE + 37, seed=21)
        lm = train_ngram_lm(corpus, n=2, d=24, seed=4, epochs=3, learning_rate=0.7)
        embeddings, output_weights, history = reference_lm(
            corpus, n=2, d=24, seed=4, epochs=3, learning_rate=0.7, min_count=1,
            group_copies=False)
        assert np.allclose(lm.embeddings, embeddings, rtol=0, atol=1e-12)
        assert np.allclose(lm.output_weights, output_weights, rtol=0, atol=1e-12)
        assert np.allclose(lm.loss_history, history, rtol=1e-12, atol=0)


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
