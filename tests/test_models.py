"""Ranker model tests: training, scoring, boosting, serialization."""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import make_subgraph
from kgcausal.kg import enumerate_subgraphs
from kgcausal.llm import MockOracle
from kgcausal.ltr import models
from kgcausal.ltr.losses import LISTNET, RANKNET, RMSE, loss_and_grad
from kgcausal.ltr.metrics import ndcg_at_k
from kgcausal.ltr.models import (
    NEURAL,
    RANDOM,
    SIMILARITY,
    GbdtEnsemble,
    NeuralParams,
    RankerModel,
    RegressionTree,
    TrainConfig,
    load_model,
    rank_subgraphs,
    record_pair,
    record_subgraphs,
    ranker_input_tokens,
    save_model,
    score_subgraphs,
    scorer_forward,
    scorer_loss_and_grads,
    train_gbdt_ranker,
    train_neural_ranker,
)
from kgcausal.ltr.ngram import NgramLM, dense_features, train_ngram_lm
from kgcausal.relevance import RankedMetapath, RankedPairRecord, rank_pair
from kgcausal.synthetic import make_planted_world


def handcrafted_lm(d=4, extra_tokens=(), seed=0):
    """LM with chosen embeddings: token "wI" carries value I/10 in dim 0."""
    tokens = ["CLS", "SEP", "-", "left", "right", *[f"w{i}" for i in range(10)],
              *extra_tokens]
    vocab = {tok: i for i, tok in enumerate(tokens)}
    vocab["<unk>"] = len(vocab)
    rng = np.random.default_rng(seed)
    embeddings = rng.normal(0.0, 0.01, size=(len(vocab), d))
    embeddings[:, 0] = 0.0
    for i in range(10):
        embeddings[vocab[f"w{i}"], 0] = i / 10.0
    return NgramLM(n=2, d=d, seed=seed, vocab=vocab, embeddings=embeddings,
                   output_weights=np.zeros((d, len(vocab))))


def linear_signal_records(n_records=30, seed=1):
    """relscore is an affine function of the planted dim-0 feature."""
    rng = np.random.default_rng(seed)
    records = []
    for q in range(n_records):
        levels = rng.choice(10, size=3, replace=False)
        metapaths = []
        scored = sorted(levels, reverse=True)
        for rank, lvl in enumerate(scored, start=1):
            metapaths.append(RankedMetapath(
                pathid=rank, relscore=0.5 + lvl / 10.0, probscore=-0.1,
                relevant="1", stops=f"left - w{lvl} - right",
                reltypes="r - r", nodelabels=" - ".join(["T"] * 3)))
        records.append(RankedPairRecord(qid=f"q{q}", e1="left", e2="right",
                                        groundtruth="1", metapaths=tuple(metapaths)))
    return records


@pytest.fixture(scope="module")
def planted():
    """Small planted world with relevance records and a trained LM."""
    world = make_planted_world(n_pairs=60, flip_rate=0.02, seed=7)
    backend = MockOracle(world.mock_config)
    records = []
    for inst in world.instances:
        subs = enumerate_subgraphs(world.kg, (inst.e1, inst.e2), max_hops=4)
        records.append(rank_pair(inst, subs, backend))
    corpus = []
    for r in records:
        for sg in record_subgraphs(r):
            corpus.append(ranker_input_tokens(record_pair(r), sg))
    lm = train_ngram_lm(corpus, n=2, d=64, seed=3, epochs=8)
    return world, records, lm


def heldout_top1_motif_rate(model, records, lm):
    hits = total = 0
    for record in records:
        if not any("stress hormone" in m.stops for m in record.metapaths):
            continue
        total += 1
        subs = record_subgraphs(record)
        ranked = rank_subgraphs(model, record_pair(record), subs, lm)
        if "stress hormone" in " - ".join(ranked[0][0].node_names):
            hits += 1
    return hits / total


def heldout_ndcg1(model, records, lm):
    values = []
    for record in records:
        subs = record_subgraphs(record)
        scores = score_subgraphs(model, record_pair(record), subs, lm)
        order = sorted(range(len(subs)), key=lambda i: (-scores[i], i))
        gains = [record.metapaths[i].relscore for i in order]
        values.append(ndcg_at_k(gains, 1))
    return float(np.mean(values))


class TestNeuralTraining:
    def test_recovers_planted_linear_signal(self):
        records = linear_signal_records()
        lm = handcrafted_lm()
        config = TrainConfig(epochs=600, learning_rate=0.3, batch=8, seed=0, lr_decay=0.05)
        model = train_neural_ranker(records, lm, RMSE, config)
        assert model.train_loss_history[-1] < 0.05

    def test_deterministic_weights(self):
        records = linear_signal_records(n_records=8)
        lm = handcrafted_lm()
        config = TrainConfig(epochs=5, seed=9)
        one = train_neural_ranker(records, lm, LISTNET, config)
        two = train_neural_ranker(records, lm, LISTNET, config)
        assert np.array_equal(one.neural.w1, two.neural.w1)
        assert np.array_equal(one.neural.w2, two.neural.w2)
        assert one.neural.b2 == two.neural.b2

    def test_planted_motif_ranked_first_on_heldout(self, planted):
        _, records, lm = planted
        train, held = records[:42], records[42:]
        config = TrainConfig(epochs=500, learning_rate=0.15, batch=8, seed=5,
                             lr_decay=0.02)
        model = train_neural_ranker(train, lm, RANKNET, config)
        assert heldout_top1_motif_rate(model, held, lm) >= 0.9

    def test_records_below_minimum_are_skipped(self):
        records = linear_signal_records(n_records=4)
        single = RankedPairRecord(
            qid="solo", e1="left", e2="right", groundtruth="1",
            metapaths=(records[0].metapaths[0],))
        lm = handcrafted_lm()
        model = train_neural_ranker(records + [single], lm, RANKNET,
                                    TrainConfig(epochs=2, seed=0))
        assert model.kind == NEURAL
        with pytest.raises(ValueError):
            train_neural_ranker([single], lm, RANKNET, TrainConfig(epochs=2, seed=0))

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError):
            train_neural_ranker(linear_signal_records(4), handcrafted_lm(), "hinge",
                                TrainConfig(epochs=1))


def per_record_trainer(records, lm, loss_kind, config):
    """The scorer trained with one forward and one backward pass per record,
    gradients summed over each minibatch: the reference for the stacked
    trainer, which must follow it up to float rounding."""
    data = []
    for record in records:
        pair = record_pair(record)
        X = np.stack([dense_features(lm, ranker_input_tokens(pair, sg))
                      for sg in record_subgraphs(record)])
        y = np.asarray([mp.relscore for mp in record.metapaths])
        data.append((X, y, list(range(1, len(y) + 1))))
    all_x = np.concatenate([X for X, _, _ in data])
    x_mean = all_x.mean(axis=0)
    x_std = np.maximum(all_x.std(axis=0), 1e-8)
    data = [((X - x_mean) / x_std, y, ranks) for X, y, ranks in data]
    rng = np.random.default_rng(config.seed)
    d, h = lm.d, models.DEFAULT_HIDDEN
    params = NeuralParams(w1=rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, h)), b1=np.zeros(h),
                          w2=rng.normal(0.0, 1.0 / np.sqrt(h), size=h), b2=0.0,
                          x_mean=x_mean, x_std=x_std)
    for epoch in range(config.epochs):
        learning_rate = config.learning_rate / (1.0 + config.lr_decay * epoch)
        order = rng.permutation(len(data))
        for start in range(0, len(order), config.batch):
            batch = order[start:start + config.batch]
            acc = {"w1": 0.0, "b1": 0.0, "w2": 0.0, "b2": 0.0}
            for idx in batch:
                X, y, ranks = data[idx]
                _, grads = scorer_loss_and_grads(params, X, loss_kind, targets=y, ranks=ranks)
                for key in acc:
                    acc[key] = acc[key] + grads[key]
            scale = learning_rate / len(batch)
            params.w1 -= scale * acc["w1"]
            params.b1 -= scale * acc["b1"]
            params.w2 -= scale * acc["w2"]
            params.b2 -= scale * acc["b2"]
    return RankerModel(kind=NEURAL, loss_kind=loss_kind, seed=config.seed, neural=params)


class TestStackedTrainer:
    """One stacked pass per minibatch against one pass per record."""

    @staticmethod
    def heldout_gap(planted, loss_kind, epochs):
        _, records, lm = planted
        train, held = records[:42], records[42:]
        config = TrainConfig(epochs=epochs, learning_rate=0.3, batch=8, seed=5, lr_decay=0.02)
        stacked = train_neural_ranker(train, lm, loss_kind, config)
        reference = per_record_trainer(train, lm, loss_kind, config)
        return max(
            float(np.max(np.abs(score_subgraphs(stacked, record_pair(r), subs, lm)
                                - score_subgraphs(reference, record_pair(r), subs, lm))))
            for r in held for subs in [record_subgraphs(r)])

    @pytest.mark.parametrize("loss_kind,tolerance",
                             [(RMSE, 1e-12), (LISTNET, 1e-12), (RANKNET, 1e-6)])
    def test_one_epoch_matches_the_per_record_trainer(self, planted, loss_kind, tolerance):
        assert self.heldout_gap(planted, loss_kind, epochs=1) <= tolerance

    def test_listnet_matches_the_per_record_trainer_at_500_epochs(self, planted):
        assert self.heldout_gap(planted, LISTNET, epochs=500) <= 1e-9


class TestScorerGradients:
    @pytest.mark.parametrize("loss_kind,lengths", [
        (RMSE, [3, 1, 5, 2]), (RANKNET, [3, 2, 5, 2]), (LISTNET, [4, 2, 6, 3])])
    def test_stacked_minibatch_finite_differences(self, loss_kind, lengths):
        rng = np.random.default_rng(11)
        d, h = 5, 4
        params = NeuralParams(w1=rng.normal(size=(d, h)), b1=rng.normal(size=h),
                              w2=rng.normal(size=h), b2=float(rng.normal()))
        X = rng.normal(size=(sum(lengths), d))
        y = rng.normal(size=len(X))
        ranks = np.concatenate([rng.permutation(np.arange(1, k + 1)) for k in lengths])
        offsets = np.cumsum(lengths) - lengths

        def loss(p):
            return scorer_loss_and_grads(p, X, loss_kind, targets=y, ranks=ranks,
                                         offsets=offsets)[0]

        total, grads = scorer_loss_and_grads(params, X, loss_kind, targets=y, ranks=ranks,
                                             offsets=offsets)
        # the stack's loss and gradients are the sums over its records
        parts = [scorer_loss_and_grads(params, X[o:o + k], loss_kind, targets=y[o:o + k],
                                       ranks=ranks[o:o + k])
                 for o, k in zip(offsets, lengths)]
        assert total == pytest.approx(sum(value for value, _ in parts), abs=1e-12)
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_allclose(grads[name], sum(g[name] for _, g in parts),
                                       rtol=0, atol=1e-12)
        step = 1e-5
        for name in ("w1", "b1", "w2"):
            flat = getattr(params, name).reshape(-1)
            for idx in range(flat.size):
                original = flat[idx]
                flat[idx] = original + step
                hi = loss(params)
                flat[idx] = original - step
                lo = loss(params)
                flat[idx] = original
                numeric = (hi - lo) / (2 * step)
                analytic = grads[name].reshape(-1)[idx]
                assert abs(analytic - numeric) <= 1e-4 * max(1.0, abs(analytic), abs(numeric))
        params.b2 += step
        hi = loss(params)
        params.b2 -= 2 * step
        lo = loss(params)
        assert grads["b2"] == pytest.approx((hi - lo) / (2 * step), rel=1e-4, abs=1e-4)

    @pytest.mark.parametrize("loss_kind", [RMSE, RANKNET, LISTNET])
    def test_quick_finite_difference_check(self, loss_kind):
        rng = np.random.default_rng(42)
        d, h, k = 5, 4, 6
        params = NeuralParams(w1=rng.normal(size=(d, h)), b1=rng.normal(size=h),
                              w2=rng.normal(size=h), b2=float(rng.normal()))
        X = rng.normal(size=(k, d))
        y = rng.normal(size=k)
        ranks = list(rng.permutation(np.arange(1, k + 1)))
        _, grads = scorer_loss_and_grads(params, X, loss_kind, targets=y, ranks=ranks)
        step = 1e-5
        for name in ("w1", "b1", "w2"):
            array = getattr(params, name)
            flat = array.reshape(-1)
            for idx in range(flat.size):
                original = flat[idx]
                flat[idx] = original + step
                hi, _ = scorer_loss_and_grads(params, X, loss_kind, targets=y, ranks=ranks)
                flat[idx] = original - step
                lo, _ = scorer_loss_and_grads(params, X, loss_kind, targets=y, ranks=ranks)
                flat[idx] = original
                numeric = (hi - lo) / (2 * step)
                analytic = grads[name].reshape(-1)[idx]
                assert abs(analytic - numeric) <= 1e-4 * max(1.0, abs(analytic), abs(numeric))


class TestGbdt:
    def test_training_rmse_non_increasing(self, planted):
        _, records, lm = planted
        config = TrainConfig(gbdt_rounds=25, seed=0)
        model = train_gbdt_ranker(records[:30], lm, config)
        history = model.train_rmse_history
        assert len(history) == 26
        assert all(a >= b - 1e-12 for a, b in zip(history, history[1:]))

    def test_depth_zero_predicts_target_mean(self, planted):
        _, records, lm = planted
        config = TrainConfig(gbdt_rounds=5, gbdt_max_depth=0, seed=0)
        model = train_gbdt_ranker(records[:10], lm, config)
        targets = [mp.relscore for r in records[:10] for mp in r.metapaths]
        subs = record_subgraphs(records[0])
        scores = score_subgraphs(model, record_pair(records[0]), subs, lm)
        assert np.allclose(scores, np.mean(targets))

    def test_planted_motif_ndcg(self, planted):
        _, records, lm = planted
        train, held = records[:42], records[42:]
        config = TrainConfig(gbdt_rounds=30, seed=0)
        model = train_gbdt_ranker(train, lm, config)
        assert heldout_ndcg1(model, held, lm) >= 0.9


class OracleTree(RegressionTree):
    """A tree that predicts on its own, one tree at a time: the reference for
    ``GbdtEnsemble.predict``, which walks every tree at once."""

    def predict(self, X):
        node = np.zeros(len(X), dtype=np.int64)
        feature = np.asarray(self.feature)
        threshold = np.asarray(self.threshold)
        left = np.asarray(self.left)
        right = np.asarray(self.right)
        value = np.asarray(self.value, dtype=np.float64)
        active = feature[node] >= 0
        while active.any():
            rows = np.flatnonzero(active)
            f = feature[node[rows]]
            goes_left = X[rows, f] <= threshold[node[rows]]
            node[rows] = np.where(goes_left, left[node[rows]], right[node[rows]])
            active = feature[node] >= 0
        return value[node]


def loop_predict(ensemble, X):
    out = np.full(len(X), ensemble.base_score, dtype=np.float64)
    for tree in ensemble.trees:
        out += ensemble.learning_rate * OracleTree(**tree.to_dict()).predict(X)
    return out


def random_tree(rng, n_cols, max_depth):
    """Nodes numbered in build order, as the trainer numbers them; thresholds
    at and between the integer feature values."""
    tree = RegressionTree(feature=[], threshold=[], left=[], right=[], value=[])

    def build(depth):
        node = len(tree.feature)
        for column, blank in ((tree.feature, -1), (tree.threshold, 0.0),
                              (tree.left, -1), (tree.right, -1)):
            column.append(blank)
        tree.value.append(float(rng.normal()))
        if depth < max_depth and rng.random() < 0.75:
            tree.feature[node] = int(rng.integers(n_cols))
            tree.threshold[node] = float(rng.integers(0, 4)) + float(rng.choice([0.0, 0.5]))
            tree.left[node] = build(depth + 1)
            tree.right[node] = build(depth + 1)
        return node

    build(0)
    return tree


class TestEnsemblePredict:
    """GbdtEnsemble.predict equals, bit for bit, one tree at a time."""

    @staticmethod
    def ensemble(rng, n_trees, n_cols):
        return GbdtEnsemble(base_score=float(rng.normal()),
                            learning_rate=float(rng.uniform(0.05, 1.0)),
                            trees=[random_tree(rng, n_cols, int(rng.integers(0, 6)))
                                   for _ in range(n_trees)])

    @pytest.mark.parametrize("n_trees,n_rows,n_cols", [
        (0, 5, 3), (1, 1, 1), (7, 12, 6), (30, 40, 50), (5, 0, 4)])
    def test_equals_the_per_tree_loop(self, n_trees, n_rows, n_cols):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ensemble = self.ensemble(rng, n_trees, n_cols)
            X = rng.integers(0, 5, size=(n_rows, n_cols)).astype(np.float64)
            got = ensemble.predict(X)
            assert got.shape == (n_rows,)
            assert np.array_equal(got, loop_predict(ensemble, X))

    def test_leaf_only_and_mixed_depths(self):
        rng = np.random.default_rng(3)
        leaf = RegressionTree(feature=[-1], threshold=[0.0], left=[-1], right=[-1],
                              value=[0.25])
        deep = random_tree(rng, 4, 6)
        ensemble = GbdtEnsemble(base_score=0.1, learning_rate=0.3,
                                trees=[leaf, deep, leaf, random_tree(rng, 4, 1)])
        X = rng.integers(0, 5, size=(25, 4)).astype(np.float64)
        assert np.array_equal(ensemble.predict(X), loop_predict(ensemble, X))
        only_leaves = GbdtEnsemble(base_score=0.1, learning_rate=0.3, trees=[leaf, leaf])
        assert np.array_equal(only_leaves.predict(X), loop_predict(only_leaves, X))

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        ensemble = self.ensemble(rng, 6, 8)
        assert isinstance(ensemble.trees, tuple)
        X = rng.integers(0, 5, size=(30, 8)).astype(np.float64)
        before = ensemble.predict(X)
        assert set(ensemble.to_dict()) == {"base_score", "learning_rate", "trees"}
        loaded = GbdtEnsemble.from_dict(json.loads(json.dumps(ensemble.to_dict())))
        assert np.array_equal(loaded.predict(X), before)

    def test_threads_share_the_first_use(self):
        """More threads than cores predict from fresh ensembles at once;
        every score still equals the per-tree loop."""
        rng = np.random.default_rng(9)
        inputs = [rng.integers(0, 5, size=(n, 16)).astype(np.float64) for n in range(1, 9)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                ensemble = self.ensemble(rng, 30, 16)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    got = list(pool.map(ensemble.predict, inputs * 2, timeout=60))
                for X, scores in zip(inputs * 2, got):
                    assert np.array_equal(scores, loop_predict(ensemble, X))
        finally:
            sys.setswitchinterval(interval)


def loop_fit_tree(X, residuals, max_depth):
    """Split search one column at a time: the reference for the histogram
    split search of ``train_gbdt_ranker``, which must build the same trees."""
    tree = OracleTree(feature=[], threshold=[], left=[], right=[], value=[])

    def build(rows, depth):
        node = len(tree.feature)
        for column, blank in ((tree.feature, -1), (tree.threshold, 0.0),
                              (tree.left, -1), (tree.right, -1), (tree.value, 0.0)):
            column.append(blank)
        r = residuals[rows]
        tree.value[node] = float(r.mean())
        if depth >= max_depth or len(rows) < 2 * models.MIN_LEAF or np.ptp(r) == 0.0:
            return node
        Xn = X[rows]
        total_sum = r.sum()
        total_cnt = len(rows)
        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        base = total_sum * total_sum / total_cnt
        for j in range(X.shape[1]):
            col = Xn[:, j]
            vmax = int(col.max())
            if vmax == int(col.min()):
                continue
            sums = np.bincount(col, weights=r, minlength=vmax + 1)
            cnts = np.bincount(col, minlength=vmax + 1)
            left_sum = np.cumsum(sums)[:-1]
            left_cnt = np.cumsum(cnts)[:-1]
            valid = (left_cnt >= models.MIN_LEAF) & (total_cnt - left_cnt >= models.MIN_LEAF)
            if not valid.any():
                continue
            right_sum = total_sum - left_sum
            right_cnt = total_cnt - left_cnt
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = np.where(
                    valid,
                    left_sum ** 2 / left_cnt + right_sum ** 2 / right_cnt - base,
                    -np.inf)
            t = int(np.argmax(gain))
            if gain[t] > best_gain + 1e-12:
                best_gain, best_feature, best_threshold = float(gain[t]), j, t + 0.5
        if best_feature < 0:
            return node
        mask = Xn[:, best_feature] <= best_threshold
        tree.feature[node] = best_feature
        tree.threshold[node] = best_threshold
        tree.left[node] = build(rows[mask], depth + 1)
        tree.right[node] = build(rows[~mask], depth + 1)
        return node

    build(np.arange(len(X)), 0)
    return tree


class TestHistogramSplits:
    """train_gbdt_ranker builds, tree for tree, what the per-column loop builds."""

    @staticmethod
    def count_matrix(rng, n_rows, n_cols):
        X = rng.integers(0, 4, size=(n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < 0.4)
        X[:, rng.integers(0, n_cols, size=3)] = 2               # constant columns
        for _ in range(4):                                     # exact gain ties
            source, target = rng.integers(0, n_cols, size=2)
            X[:, target] = X[:, source]
        X[:, n_cols - 1] = X[:, 0]                             # a tie across chunks
        return X

    @pytest.mark.parametrize("n_rows,n_cols,depth,chunk", [
        (3, 6, 3, models.SPLIT_CHUNK), (7, 140, 3, models.SPLIT_CHUNK),
        (40, 260, 4, models.SPLIT_CHUNK), (25, 50, 3, 7), (12, 30, 5, 1)])
    def test_trees_equal_the_per_column_loop(self, monkeypatch, n_rows, n_cols, depth, chunk):
        monkeypatch.setattr(models, "SPLIT_CHUNK", chunk)
        splits = 0
        for seed in range(3):
            rng = np.random.default_rng(seed)
            X = self.count_matrix(rng, n_rows, n_cols)
            # relevance on few levels, so residual sums tie as well
            y = rng.integers(0, 3, size=n_rows) * 0.5
            y[:2] = (0.0, 1.0)
            records = [RankedPairRecord(
                qid=f"q{i}", e1="a", e2="b", groundtruth="1",
                metapaths=(RankedMetapath(pathid=1, relscore=float(y[i]), probscore=-0.1,
                                          relevant="1", stops="a - x - b",
                                          reltypes="r - r", nodelabels="T - T - T"),))
                for i in range(n_rows)]
            rows = iter(X)
            monkeypatch.setattr(models, "_hashed_matrix",
                                lambda *args: next(rows)[None, :].astype(np.float64))
            config = TrainConfig(gbdt_rounds=5, gbdt_max_depth=depth, gbdt_learning_rate=0.7)
            model = train_gbdt_ranker(records, handcrafted_lm(), config)

            predictions = np.full(n_rows, y.mean())
            for tree in model.gbdt.trees:
                expected = loop_fit_tree(X, y - predictions, depth)
                assert tree.to_dict() == expected.to_dict()
                predictions += config.gbdt_learning_rate * expected.predict(X)
                splits += sum(f >= 0 for f in tree.feature)
        assert splits


class TestRankSubgraphs:
    def test_single_candidate(self):
        lm = handcrafted_lm()
        model = RankerModel(kind=RANDOM, seed=1)
        sg = make_subgraph(["left", "w1", "right"])
        assert rank_subgraphs(model, ("left", "right"), [sg], lm)[0][0] is sg

    def test_random_kind_reproducible(self):
        model = RankerModel(kind=RANDOM, seed=11)
        subs = [make_subgraph(["left", f"w{i}", "right"]) for i in range(6)]
        one = rank_subgraphs(model, ("left", "right"), subs)
        two = rank_subgraphs(model, ("left", "right"), subs)
        assert [id(s) for s, _ in one] == [id(s) for s, _ in two]
        other = rank_subgraphs(RankerModel(kind=RANDOM, seed=12), ("left", "right"), subs)
        assert [id(s) for s, _ in one] != [id(s) for s, _ in other]

    def test_monotone_model_follows_planted_feature(self):
        lm = handcrafted_lm()
        d = lm.d
        params = NeuralParams(w1=np.zeros((d, 2)), b1=np.zeros(2),
                              w2=np.array([1.0, 0.0]), b2=0.0)
        params.w1[0, 0] = 1.0
        model = RankerModel(kind=NEURAL, loss_kind=RMSE, neural=params)
        levels = [3, 9, 1, 6]
        subs = [make_subgraph(["left", f"w{v}", "right"]) for v in levels]
        ranked = rank_subgraphs(model, ("left", "right"), subs, lm)
        got_levels = [int(sg.node_names[1][1:]) for sg, _ in ranked]
        assert got_levels == sorted(levels, reverse=True)

    def test_order_invariant_under_increasing_transform(self):
        subs = [make_subgraph(["left", f"w{i}", "right"]) for i in range(5)]
        model = RankerModel(kind=RANDOM, seed=3)
        base_scores = score_subgraphs(model, ("left", "right"), subs)
        base_order = sorted(range(5), key=lambda i: (-base_scores[i], i))
        transformed = np.exp(3.0 * base_scores) + 7.0
        new_order = sorted(range(5), key=lambda i: (-transformed[i], i))
        assert base_order == new_order

    def test_similarity_prefers_pair_identical_tokens(self):
        lm = handcrafted_lm(extra_tokens=("unrelated", "stuff"))
        model = RankerModel(kind=SIMILARITY, seed=0)
        identical = make_subgraph(["left", "right"])
        other = make_subgraph(["unrelated", "stuff"])
        ranked = rank_subgraphs(model, ("left", "right"), [other, identical], lm)
        assert ranked[0][0] is identical
        assert ranked[0][1] == pytest.approx(1.0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            rank_subgraphs(RankerModel(kind=RANDOM), ("a", "b"), [])


class TestSerialization:
    def test_neural_round_trip_exact(self, planted, tmp_path):
        _, records, lm = planted
        model = train_neural_ranker(records[:10], lm, LISTNET,
                                    TrainConfig(epochs=3, seed=1))
        path = tmp_path / "model.json"
        save_model(model, path, lm)
        loaded, loaded_lm = load_model(path)
        again = tmp_path / "model2.json"
        save_model(loaded, again, loaded_lm)
        assert path.read_bytes() == again.read_bytes()
        subs = record_subgraphs(records[0])
        original = score_subgraphs(model, record_pair(records[0]), subs, lm)
        restored = score_subgraphs(loaded, record_pair(records[0]), subs, loaded_lm)
        assert np.array_equal(original, restored)

    def test_gbdt_round_trip_exact(self, planted, tmp_path):
        _, records, lm = planted
        model = train_gbdt_ranker(records[:10], lm, TrainConfig(gbdt_rounds=5, seed=1))
        path = tmp_path / "model.json"
        save_model(model, path, lm)
        loaded, loaded_lm = load_model(path)
        subs = record_subgraphs(records[3])
        assert np.array_equal(
            score_subgraphs(model, record_pair(records[3]), subs, lm),
            score_subgraphs(loaded, record_pair(records[3]), subs, loaded_lm))

    def test_version_checked(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"version": "v0"}', encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            load_model(path)


class TestRecordSubgraphs:
    def test_rebuilds_names_types_labels(self):
        record = linear_signal_records(n_records=1)[0]
        subs = record_subgraphs(record)
        assert subs[0].node_names == tuple(record.metapaths[0].stops.split(" - "))
        assert subs[0].node_types == ("T", "T", "T")
        assert subs[0].edge_labels == ("r", "r")

    def test_typeless_record(self):
        record = RankedPairRecord(
            qid="q", e1="a", e2="b", groundtruth="0",
            metapaths=(RankedMetapath(pathid=1, relscore=1.0, probscore=None,
                                      relevant="0", stops="a - b", reltypes="r",
                                      nodelabels=""),))
        subs = record_subgraphs(record)
        assert subs[0].node_types == ("", "")
