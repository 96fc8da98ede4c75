"""Language-model feature extractor tests."""

from __future__ import annotations

import numpy as np
import pytest

from kgcausal.ltr.ngram import UNK, dense_features, hashed_counts, train_ngram_lm


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
        assert not np.array_equal(hashed_counts(forward, toy_lm.n),
                                  hashed_counts(backward, toy_lm.n))

    def test_hashed_counts_total(self):
        counts = hashed_counts(["a", "b", "c"], n=2, hash_dim=64)
        # three unigrams plus two bigrams
        assert counts.sum() == 5
        assert counts.min() >= 0

    def test_hashed_deterministic_across_calls(self):
        one = hashed_counts(["x", "y"], n=2, hash_dim=32)
        two = hashed_counts(["x", "y"], n=2, hash_dim=32)
        assert np.array_equal(one, two)

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
        assert np.array_equal(clone.output_weights, toy_lm.output_weights)
