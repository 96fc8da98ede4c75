"""Subgraph ranking models.

Two trained families share the same scoring contract f((a, b), path) -> real:

* a feedforward scorer over mean-pooled language-model embeddings, trained
  with the pointwise / pairwise / listwise objectives from ``losses``;
* gradient-boosted regression trees over hashed n-gram counts.

Two untrained kinds round out the set: cosine similarity against the pair
text and a seeded random scorer.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..kg import FORWARD, MetapathSubgraph
from ..relevance import RankedPairRecord
from ..util import atomic_write, descending_order, parse_fields, stable_hash
from ..verbalize import HYPHEN_STYLE, ranker_input_tokens, tokenize, verbalize
from .losses import LOSS_KINDS, RMSE, loss_and_grad
from .ngram import DEFAULT_HASH_DIM, NgramLM, dense_features, hashed_slots

logger = logging.getLogger(__name__)

NEURAL = "neural"
GBDT = "gbdt"
SIMILARITY = "similarity"
RANDOM = "random"
MODEL_KINDS = (NEURAL, GBDT, SIMILARITY, RANDOM)

DEFAULT_HIDDEN = 64
MIN_LEAF = 1
SPLIT_CHUNK = 128  # columns per GBDT split histogram
MODEL_FORMAT_VERSION = "v1"
# The feature settings every model file records; no other value is read.
FEATURE = {"include_types": True, "hash_dim": DEFAULT_HASH_DIM}


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for both trainer families.

    ``lr_decay`` applies inverse-time decay, lr / (1 + decay * epoch); the
    pointwise objective needs it to converge tightly because its gradient
    magnitude does not vanish at the optimum.
    """

    epochs: int = 200
    learning_rate: float = 0.05
    batch: int = 8
    seed: int = 0
    lr_decay: float = 0.0
    gbdt_rounds: int = 100
    gbdt_max_depth: int = 3
    gbdt_learning_rate: float = 0.1

    def __post_init__(self):
        if min(self.epochs, self.batch, self.gbdt_rounds) < 1:
            raise ValueError("epochs, batch and gbdt_rounds must be positive")
        if self.learning_rate <= 0 or self.gbdt_learning_rate <= 0:
            raise ValueError("learning rates must be positive")
        if self.lr_decay < 0:
            raise ValueError("lr_decay must be >= 0")
        if self.gbdt_max_depth < 0:
            raise ValueError("gbdt_max_depth must be >= 0")


@dataclass
class NeuralParams:
    """Scorer weights plus the feature standardization fitted at training."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float
    x_mean: Optional[np.ndarray] = None
    x_std: Optional[np.ndarray] = None

    def standardize(self, X: np.ndarray) -> np.ndarray:
        if self.x_mean is None:
            return X
        return (X - self.x_mean) / self.x_std

    def to_dict(self) -> dict:
        return {"w1": self.w1.tolist(), "b1": self.b1.tolist(),
                "w2": self.w2.tolist(), "b2": self.b2,
                "x_mean": None if self.x_mean is None else self.x_mean.tolist(),
                "x_std": None if self.x_std is None else self.x_std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "NeuralParams":
        return cls(w1=np.asarray(d["w1"], dtype=np.float64),
                   b1=np.asarray(d["b1"], dtype=np.float64),
                   w2=np.asarray(d["w2"], dtype=np.float64),
                   b2=float(d["b2"]),
                   x_mean=None if d.get("x_mean") is None
                   else np.asarray(d["x_mean"], dtype=np.float64),
                   x_std=None if d.get("x_std") is None
                   else np.asarray(d["x_std"], dtype=np.float64))


@dataclass
class RegressionTree:
    """Flat node arrays; feature -1 marks a leaf."""

    feature: list[int]
    threshold: list[float]
    left: list[int]
    right: list[int]
    value: list[float]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RegressionTree":
        return cls(feature=list(d["feature"]), threshold=list(d["threshold"]),
                   left=list(d["left"]), right=list(d["right"]), value=list(d["value"]))


def _tree_depth(tree: RegressionTree) -> int:
    depth, level = 0, [0]
    while True:
        level = [child for node in level if tree.feature[node] >= 0
                 for child in (tree.left[node], tree.right[node])]
        if not level:
            return depth
        depth += 1


class _TreeStack:
    """The trees of an ensemble as flat ``(trees x width)`` node arrays.

    Node ids are global (``tree * width + node``).  A leaf, and every padding
    node, points both children at itself, so a row that has reached its leaf
    stays there while deeper trees are still being walked.
    """

    def __init__(self, trees: Sequence[RegressionTree]):
        width = max((len(tree.feature) for tree in trees), default=1)
        ids = np.arange(len(trees) * width).reshape(len(trees), width)
        feature = np.zeros_like(ids)
        threshold = np.zeros(ids.shape)
        left = ids.copy()
        right = ids.copy()
        value = np.zeros(ids.shape)
        for t, tree in enumerate(trees):
            n = len(tree.feature)
            split = np.asarray(tree.feature) >= 0
            feature[t, :n] = np.where(split, tree.feature, 0)
            threshold[t, :n] = tree.threshold
            left[t, :n] = np.where(split, np.asarray(tree.left) + t * width, ids[t, :n])
            right[t, :n] = np.where(split, np.asarray(tree.right) + t * width, ids[t, :n])
            value[t, :n] = tree.value
        self.roots = ids[:, 0].copy()
        self.feature = feature.ravel()
        self.threshold = threshold.ravel()
        self.left = left.ravel()
        self.right = right.ravel()
        self.value = value.ravel()
        self.depth = max((_tree_depth(tree) for tree in trees), default=0)

    def predict(self, X: np.ndarray, base_score: float, learning_rate: float) -> np.ndarray:
        n_rows = len(X)
        steps = np.empty((len(self.roots) + 1, n_rows))
        steps[0] = base_score
        if len(self.roots) and n_rows:
            flat = np.ravel(X)
            row_start = np.arange(n_rows) * X.shape[1]
            node = np.repeat(self.roots[:, None], n_rows, axis=1)
            for _ in range(self.depth):
                goes_left = flat[row_start + self.feature[node]] <= self.threshold[node]
                node = np.where(goes_left, self.left[node], self.right[node])
            steps[1:] = learning_rate * self.value[node]
        # accumulate is defined to add row after row, so the float sum is the
        # one of adding each tree's contribution in turn; a sum's order is
        # numpy's choice.
        return np.add.accumulate(steps, axis=0)[-1]


@dataclass(frozen=True)
class GbdtEnsemble:
    """``base_score`` plus ``learning_rate`` times each tree's leaf value,
    added in tree order.

    ``predict`` walks every row through every tree at once, one tree level
    per round (QuickScorer, Lucchese et al., SIGIR 2015), over a stack of
    the trees built with the ensemble.  Trees are not edited in place.
    """

    base_score: float
    learning_rate: float
    trees: tuple[RegressionTree, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))
        object.__setattr__(self, "_stack", _TreeStack(self.trees))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._stack.predict(X, self.base_score, self.learning_rate)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GbdtEnsemble":
        return cls(base_score=float(d["base_score"]),
                   learning_rate=float(d["learning_rate"]),
                   trees=tuple(RegressionTree.from_dict(t) for t in d["trees"]))


@dataclass
class RankerModel:
    """A deterministic scoring function over (pair, subgraph) inputs."""

    kind: str
    loss_kind: Optional[str] = None
    seed: int = 0
    neural: Optional[NeuralParams] = None
    gbdt: Optional[GbdtEnsemble] = None
    train_loss_history: list[float] = field(default_factory=list)
    train_rmse_history: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.loss_kind is not None and self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")


def scorer_forward(params: NeuralParams, X: np.ndarray) -> np.ndarray:
    hidden = np.tanh(X @ params.w1 + params.b1)
    return hidden @ params.w2 + params.b2


def scorer_loss_and_grads(params: NeuralParams, X: np.ndarray, loss_kind: str,
                          targets: Optional[Sequence[float]] = None,
                          ranks: Optional[Sequence[int]] = None,
                          offsets: Optional[Sequence[int]] = None):
    """Loss value and analytic gradients for every scorer parameter.

    ``X`` stacks the paths of one or more records, and ``offsets`` gives the
    row where each record starts (one record when omitted).  Loss and
    gradients are sums over the records; see :func:`losses.loss_and_grad`.
    """
    hidden = np.tanh(X @ params.w1 + params.b1)
    scores = hidden @ params.w2 + params.b2
    loss, dl_ds = loss_and_grad(loss_kind, scores, targets=targets, ranks=ranks,
                                offsets=offsets)
    d_pre = np.outer(dl_ds, params.w2) * (1.0 - hidden ** 2)
    grads = {
        "w1": X.T @ d_pre,
        "b1": d_pre.sum(axis=0),
        "w2": hidden.T @ dl_ds,
        "b2": float(dl_ds.sum()),
    }
    return loss, grads


def record_pair(record: RankedPairRecord) -> tuple[str, str]:
    return record.e1, record.e2


def record_subgraphs(record: RankedPairRecord) -> list[MetapathSubgraph]:
    """Rebuild path objects from a ranked record's hyphen-joined fields.

    Crossing directions are not stored in records, so every hop comes back
    as forward; features and verbalizations used here do not depend on it.
    """
    out = []
    for mp in record.metapaths:
        names = mp.stops.split(" - ")
        n = len(names)
        types = mp.nodelabels.split(" - ") if mp.nodelabels else [""] * n
        labels = mp.reltypes.split(" - ") if mp.reltypes else [""] * (n - 1)
        if len(types) != n or len(labels) != n - 1:
            raise ValueError(
                f"{record.qid} path {mp.pathid}: inconsistent stops/reltypes/nodelabels")
        node_ids = tuple(f"{record.qid}:{mp.pathid}:{i}" for i in range(n))
        out.append(MetapathSubgraph(
            node_ids=node_ids,
            node_names=tuple(names),
            node_types=tuple(types),
            edge_labels=tuple(labels),
            edge_directions=(FORWARD,) * (n - 1),
        ))
    return out


def _dense_matrix(lm: NgramLM, pair, subgraphs) -> np.ndarray:
    return np.stack([dense_features(lm, ranker_input_tokens(pair, sg)) for sg in subgraphs])


def _hashed_matrix(lm: NgramLM, pair, subgraphs) -> np.ndarray:
    """Hashed n-gram counts, one row per subgraph, from one bincount over
    ``row * DEFAULT_HASH_DIM + slot``."""
    dim = DEFAULT_HASH_DIM
    slots = [hashed_slots(ranker_input_tokens(pair, sg), lm.n, dim) for sg in subgraphs]
    rows = np.repeat(np.arange(len(slots)) * dim, [len(row) for row in slots])
    cells = rows + np.fromiter(itertools.chain.from_iterable(slots), dtype=np.int64,
                               count=len(rows))
    counts = np.bincount(cells, minlength=len(slots) * dim)
    return counts.reshape(len(slots), dim).astype(np.float64)


def score_subgraphs(model: RankerModel, pair: tuple[str, str],
                    subgraphs: Sequence[MetapathSubgraph],
                    lm: Optional[NgramLM] = None) -> np.ndarray:
    """Model scores in input order."""
    if not subgraphs:
        return np.zeros(0, dtype=np.float64)
    if model.kind == NEURAL:
        X = _dense_matrix(lm, pair, subgraphs)
        return scorer_forward(model.neural, model.neural.standardize(X))
    if model.kind == GBDT:
        return model.gbdt.predict(_hashed_matrix(lm, pair, subgraphs))
    if model.kind == SIMILARITY:
        pair_vec = dense_features(lm, tokenize(f"{pair[0]} - {pair[1]}"))
        scores = []
        for sg in subgraphs:
            sg_vec = dense_features(lm, tokenize(verbalize(sg, HYPHEN_STYLE)))
            denom = np.linalg.norm(pair_vec) * np.linalg.norm(sg_vec)
            scores.append(float(pair_vec @ sg_vec / denom) if denom > 0 else 0.0)
        return np.asarray(scores, dtype=np.float64)
    # random: a seeded value per candidate position, stable across runs
    return np.asarray([
        stable_hash(model.seed, pair[0], pair[1], i) / 2**64 for i in range(len(subgraphs))])


def rank_subgraphs(model: RankerModel, pair: tuple[str, str],
                   subgraphs: Sequence[MetapathSubgraph],
                   lm: Optional[NgramLM] = None) -> list[tuple[MetapathSubgraph, float]]:
    """Candidates sorted by descending score; ties keep input order."""
    if not subgraphs:
        raise ValueError("subgraphs must be non-empty")
    scores = score_subgraphs(model, pair, subgraphs, lm)
    return [(subgraphs[i], float(scores[i])) for i in descending_order(scores)]


def _eligible_records(dataset: Sequence[RankedPairRecord], loss_kind: str):
    minimum = 1 if loss_kind == RMSE else 2
    kept, skipped = [], 0
    for record in dataset:
        if len(record.metapaths) >= minimum:
            kept.append(record)
        else:
            skipped += 1
    if not kept:
        raise ValueError(f"no record has the >= {minimum} paths needed for {loss_kind}")
    if skipped:
        logger.info("skipped %d records with too few paths for %s", skipped, loss_kind)
    return kept


def train_neural_ranker(dataset: Sequence[RankedPairRecord], lm: NgramLM, loss_kind: str,
                        config: TrainConfig = TrainConfig()) -> RankerModel:
    """Minibatch gradient descent on the feedforward scorer.

    Targets are the records' relevance scores; for the pairwise objective
    the rank of each path is its position in the record, which is already
    sorted by descending relevance.  Each minibatch of ``config.batch``
    records is stacked into one matrix and takes one forward and one
    backward pass, its records marked by row offsets.
    """
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    records = _eligible_records(dataset, loss_kind)

    X = np.concatenate([_dense_matrix(lm, record_pair(record), record_subgraphs(record))
                        for record in records])
    y = np.asarray([mp.relscore for record in records for mp in record.metapaths],
                   dtype=np.float64)
    lengths = np.asarray([len(record.metapaths) for record in records])
    ranks = np.concatenate([np.arange(1, n + 1) for n in lengths])
    record_rows = [np.arange(start, start + n)
                   for start, n in zip(np.cumsum(lengths) - lengths, lengths)]

    x_mean = X.mean(axis=0)
    x_std = np.maximum(X.std(axis=0), 1e-8)
    X = (X - x_mean) / x_std

    rng = np.random.default_rng(config.seed)
    d = lm.d
    h = DEFAULT_HIDDEN
    params = NeuralParams(
        w1=rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, h)),
        b1=np.zeros(h),
        w2=rng.normal(0.0, 1.0 / np.sqrt(h), size=h),
        b2=0.0,
        x_mean=x_mean,
        x_std=x_std,
    )

    history: list[float] = []
    for epoch in range(config.epochs):
        learning_rate = config.learning_rate / (1.0 + config.lr_decay * epoch)
        order = rng.permutation(len(records))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch):
            batch = order[start:start + config.batch]
            rows = np.concatenate([record_rows[i] for i in batch])
            batch_lengths = lengths[batch]
            loss, grads = scorer_loss_and_grads(
                params, X[rows], loss_kind, targets=y[rows], ranks=ranks[rows],
                offsets=np.cumsum(batch_lengths) - batch_lengths)
            epoch_loss += loss
            scale = learning_rate / len(batch)
            params.w1 -= scale * grads["w1"]
            params.b1 -= scale * grads["b1"]
            params.w2 -= scale * grads["w2"]
            params.b2 -= scale * grads["b2"]
        mean_loss = epoch_loss / len(records)
        history.append(float(mean_loss))
        logger.debug("ranker epoch %d: %s loss %.5f", epoch + 1, loss_kind, mean_loss)

    return RankerModel(kind=NEURAL, loss_kind=loss_kind, seed=config.seed, neural=params,
                       train_loss_history=history)


def _split_gains(X: np.ndarray, rows: np.ndarray, r: np.ndarray,
                 width: int) -> tuple[np.ndarray, np.ndarray]:
    """Best variance-reduction gain of every column of ``X[rows]`` and the
    bin below its threshold; -inf where no split leaves MIN_LEAF rows a side.

    Histogram method (Ke et al., NeurIPS 2017): one bincount over
    ``column * width + value`` bin ids sums the residuals of every
    (column, value) bin, in row order, and a cumulative sum along the bins
    scores every threshold at once.  ``width`` is one more than the largest
    value in ``X``; bins above a node's own largest value leave no row on
    the right, so they never score.  Columns go SPLIT_CHUNK at a time, and
    only that slice of the node's rows is copied.
    """
    n_cols = X.shape[1]
    gains = np.full(n_cols, -np.inf)
    bins_below = np.zeros(n_cols, dtype=np.int64)
    if width < 2:
        return gains, bins_below
    total_sum = r.sum()
    total_cnt = len(r)
    base = total_sum * total_sum / total_cnt
    for first in range(0, n_cols, SPLIT_CHUNK):
        block = X[rows, first:first + SPLIT_CHUNK]
        n_block = block.shape[1]
        bins = (block + np.arange(n_block) * width).ravel()
        sums = np.bincount(bins, weights=np.repeat(r, n_block), minlength=n_block * width)
        cnts = np.bincount(bins, minlength=n_block * width)
        left_sum = np.cumsum(sums.reshape(n_block, width), axis=1)[:, :-1]
        left_cnt = np.cumsum(cnts.reshape(n_block, width), axis=1)[:, :-1]
        right_sum = total_sum - left_sum
        right_cnt = total_cnt - left_cnt
        valid = (left_cnt >= MIN_LEAF) & (right_cnt >= MIN_LEAF)
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = np.where(
                valid,
                left_sum ** 2 / left_cnt + right_sum ** 2 / right_cnt - base,
                -np.inf)
        t = np.argmax(gain, axis=1)
        gains[first:first + n_block] = gain[np.arange(n_block), t]
        bins_below[first:first + n_block] = t
    return gains, bins_below


def _fit_tree(X: np.ndarray, residuals: np.ndarray,
              max_depth: int) -> tuple[RegressionTree, np.ndarray]:
    """Greedy variance-reduction regression tree on integer count features,
    and the value of the leaf each row of ``X`` falls into.

    Every leaf keeps at least MIN_LEAF rows.  Columns are taken in order,
    and a column replaces the chosen one when its best gain is higher by
    more than 1e-12; the split is at the chosen column's first best
    threshold."""
    tree = RegressionTree(feature=[], threshold=[], left=[], right=[], value=[])
    leaf_values = np.empty(len(X))
    width = int(X.max(initial=0)) + 1

    def add_node() -> int:
        tree.feature.append(-1)
        tree.threshold.append(0.0)
        tree.left.append(-1)
        tree.right.append(-1)
        tree.value.append(0.0)
        return len(tree.feature) - 1

    def build(rows: np.ndarray, depth: int) -> int:
        node = add_node()
        r = residuals[rows]
        tree.value[node] = float(r.mean())
        best_feature = -1
        if depth < max_depth and len(rows) >= 2 * MIN_LEAF and np.ptp(r) != 0.0:
            gains, bins_below = _split_gains(X, rows, r, width)
            best_gain = 0.0
            while True:
                ahead = np.flatnonzero(gains[best_feature + 1:] > best_gain + 1e-12)
                if not ahead.size:
                    break
                best_feature += 1 + int(ahead[0])
                best_gain = float(gains[best_feature])
        if best_feature < 0:
            leaf_values[rows] = tree.value[node]
            return node
        best_threshold = int(bins_below[best_feature]) + 0.5
        mask = X[rows, best_feature] <= best_threshold
        tree.feature[node] = best_feature
        tree.threshold[node] = best_threshold
        tree.left[node] = build(rows[mask], depth + 1)
        tree.right[node] = build(rows[~mask], depth + 1)
        return node

    build(np.arange(len(X)), 0)
    return tree, leaf_values


def train_gbdt_ranker(dataset: Sequence[RankedPairRecord], lm: NgramLM,
                      config: TrainConfig = TrainConfig()) -> RankerModel:
    """Squared-error gradient boosting on relevance scores.

    Each round fits a tree to the current residuals; with a learning rate in
    (0, 2] the training RMSE can never increase, and the per-round values
    are recorded on the model.
    """
    records = _eligible_records(dataset, RMSE)
    X = np.concatenate([_hashed_matrix(lm, record_pair(record), record_subgraphs(record))
                        for record in records]).astype(np.int64)
    y = np.asarray([mp.relscore for record in records for mp in record.metapaths],
                   dtype=np.float64)

    base_score = float(y.mean())
    predictions = np.full(len(y), base_score)
    history = [float(np.sqrt(np.mean((y - predictions) ** 2)))]
    trees = []
    for round_idx in range(config.gbdt_rounds):
        tree, leaf_values = _fit_tree(X, y - predictions, config.gbdt_max_depth)
        trees.append(tree)
        predictions += config.gbdt_learning_rate * leaf_values
        rmse = float(np.sqrt(np.mean((y - predictions) ** 2)))
        history.append(rmse)
        logger.debug("gbdt round %d: train rmse %.5f", round_idx + 1, rmse)

    ensemble = GbdtEnsemble(base_score=base_score, learning_rate=config.gbdt_learning_rate,
                            trees=tuple(trees))
    return RankerModel(kind=GBDT, loss_kind=None, seed=config.seed, gbdt=ensemble,
                       train_rmse_history=history)


def save_model(model: RankerModel, path, lm: Optional[NgramLM] = None) -> None:
    """Write the model (and its language model) as one JSON document."""
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "loss_kind": model.loss_kind,
        "seed": model.seed,
        "feature": FEATURE,
        "neural": model.neural.to_dict() if model.neural else None,
        "gbdt": model.gbdt.to_dict() if model.gbdt else None,
        "train_loss_history": model.train_loss_history,
        "train_rmse_history": model.train_rmse_history,
        "ngram_lm": lm.to_dict() if lm else None,
    }
    atomic_write(path, json.dumps(doc, ensure_ascii=False) + "\n")


def load_model(path) -> tuple[RankerModel, Optional[NgramLM]]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return parse_fields(_model_from_doc, doc, str(path))


def _model_from_doc(doc: dict) -> tuple[RankerModel, Optional[NgramLM]]:
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {doc.get('version')!r}")
    if doc["feature"] != FEATURE:
        raise ValueError(f"unsupported feature settings {doc['feature']!r}")
    model = RankerModel(
        kind=doc["kind"],
        loss_kind=doc["loss_kind"],
        seed=doc["seed"],
        neural=NeuralParams.from_dict(doc["neural"]) if doc["neural"] else None,
        gbdt=GbdtEnsemble.from_dict(doc["gbdt"]) if doc["gbdt"] else None,
        train_loss_history=list(doc.get("train_loss_history") or []),
        train_rmse_history=list(doc.get("train_rmse_history") or []),
    )
    lm = NgramLM.from_dict(doc["ngram_lm"]) if doc.get("ngram_lm") else None
    return model, lm
