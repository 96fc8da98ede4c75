"""Subgraph ranking models.

Two trained families share the same scoring contract f((a, b), path) -> real:

* a feedforward scorer over mean-pooled language-model embeddings, trained
  with the pointwise / pairwise / listwise objectives from ``losses``;
* gradient-boosted regression trees over hashed n-gram counts.

Two untrained kinds round out the set: cosine similarity against the pair
text and a seeded random scorer.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..kg import FORWARD, MetapathSubgraph
from ..relevance import RankedPairRecord
from ..util import descending_order, read_fields, read_json, stable_hash, write_json
from ..verbalize import HYPHEN_STYLE, piece_tokens, ranker_input_tokens, tokenize, verbalize
from .losses import _KERNELS, LOSS_KINDS, RANKNET, RMSE, _segments, _stack_target
from .ngram import DEFAULT_HASH_DIM, NgramLM, checked_order, dense_features, hashed_slots

logger = logging.getLogger(__name__)

NEURAL = "neural"
GBDT = "gbdt"
SIMILARITY = "similarity"
RANDOM = "random"
MODEL_KINDS = (NEURAL, GBDT, SIMILARITY, RANDOM)
# The kinds whose scorer reads the LM's embeddings; only their files hold the LM.
EMBEDDING_KINDS = (NEURAL, SIMILARITY)

DEFAULT_HIDDEN = 64
MIN_LEAF = 1
MODEL_FORMAT_VERSION = "v2"
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


@dataclass
class RegressionTree:
    """Flat node arrays; feature -1 marks a leaf."""

    feature: list[int]
    threshold: list[float]
    left: list[int]
    right: list[int]
    value: list[float]


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
    added in tree order, over the hashed counts of every 1..``n``-gram.

    ``predict`` walks every row through every tree at once, one tree level
    per round (QuickScorer, Lucchese et al., SIGIR 2015), over a stack of
    the trees, built at the first prediction.  Trees are not edited in place.
    """

    base_score: float
    learning_rate: float
    n: int = 2
    trees: tuple[RegressionTree, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))

    @functools.cached_property
    def _stack(self) -> _TreeStack:
        return _TreeStack(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._stack.predict(X, self.base_score, self.learning_rate)

    def to_dict(self) -> dict:
        return asdict(self)


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


class _FlatScorer:
    """The scorer's w1, b1, w2 and b2 as views of one flat buffer, their
    gradients as views of another, and scratch rows for up to ``max_rows``
    paths, so a step runs in place and updates with two buffer operations."""

    def __init__(self, w1, b1, w2, b2: float, max_rows: int):
        d, h = w1.shape
        self.flat = np.concatenate([np.ravel(w1), b1, w2, [b2]])
        self.grad = np.empty_like(self.flat)
        self.w1, self.b1, self.w2, self.g_w1, self.g_b1, self.g_w2 = (
            view for buf in (self.flat, self.grad)
            for view in (buf[:d * h].reshape(d, h), buf[d * h:-h - 1], buf[-h - 1:-1]))
        self.hidden, self.d_pre = np.empty((2, max_rows, h))

    def forward(self, X: np.ndarray) -> np.ndarray:
        """tanh(X w1 + b1) w2 + b2, computed in the scratch rows."""
        hidden = self.hidden[:len(X)]
        np.matmul(X, self.w1, out=hidden)
        hidden += self.b1
        np.tanh(hidden, out=hidden)
        scores = hidden @ self.w2
        scores += self.flat[-1]
        return scores

    def loss_and_grads(self, X: np.ndarray, loss_fn, *args) -> float:
        """``loss_fn(scores, *args)``'s loss for the stacked rows of ``X``; the
        parameter gradients land in ``self.grad``."""
        loss, dl_ds = loss_fn(self.forward(X), *args)
        hidden, d_pre = self.hidden[:len(X)], self.d_pre[:len(X)]
        np.matmul(hidden.T, dl_ds, out=self.g_w2)
        np.multiply(dl_ds[:, None], self.w2, out=d_pre)
        np.square(hidden, out=hidden)
        np.subtract(1.0, hidden, out=hidden)
        d_pre *= hidden
        np.matmul(X.T, d_pre, out=self.g_w1)
        np.add.reduce(d_pre, axis=0, out=self.g_b1)
        self.grad[-1] = np.add.reduce(dl_ds)
        return loss


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


# A piece's slots and the n - 1 tokens it leaves ahead, kept per (n, kind,
# name, first, tokens ahead), the piece as ``verbalize.piece_tokens`` reads
# it; once the table is full, new keys are not kept.  A kept entry's slots
# are items of ``_SLOT_INTS``, and its ahead tuple is the one of
# ``_aheads``, so that entries share them instead of holding their own.
_PIECE_SLOTS_LIMIT = 1 << 14
_piece_slots: dict[tuple, tuple[tuple[int, ...], tuple[str, ...]]] = {}
_SLOT_INTS = tuple(range(DEFAULT_HASH_DIM))
_aheads: dict[tuple[str, ...], tuple[str, ...]] = {}


def _read_piece(key: tuple, unkept: dict) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """A piece's entry of ``_piece_slots``, read afresh and kept there, or in
    ``unkept``, a caller's own table, once that is full."""
    n, kind, name, first, ahead = key
    tokens = piece_tokens(kind, name, first)
    slots = tuple(map(_SLOT_INTS.__getitem__, hashed_slots(tokens, n, DEFAULT_HASH_DIM, ahead)))
    ahead = (tokens + ahead)[:n - 1]
    if len(_piece_slots) < _PIECE_SLOTS_LIMIT:
        found = _piece_slots[key] = slots, _aheads.setdefault(ahead, ahead)
    else:
        found = unkept[key] = slots, ahead
    return found


def _path_slots(n: int, pair, subgraphs) -> list[list[int]]:
    """The slot in ``DEFAULT_HASH_DIM`` of every 1..n-gram of each
    subgraph's ranker input, in no fixed order.  A path is read piece by
    piece from its last node: a piece's slots are those of the n-grams that
    start in it, given the n - 1 tokens that follow it.  The pair's two
    pieces come last, read once per pair and tokens ahead."""
    get = _piece_slots.get
    unkept: dict[tuple, tuple[tuple[int, ...], tuple[str, ...]]] = {}
    pair_slots: dict[tuple[str, ...], tuple[int, ...]] = {}
    rows = []
    for subgraph in subgraphs:
        names, types, labels = subgraph.node_names, subgraph.node_types, subgraph.edge_labels
        i = len(labels)
        key = (n, types[i] or labels[i - 1], names[i], False, ())
        slots, ahead = get(key) or unkept.get(key) or _read_piece(key, unkept)
        row = list(slots)
        for i in range(i - 1, -1, -1):
            key = (n, types[i] or labels[i], names[i], i == 0, ahead)
            slots, ahead = get(key) or unkept.get(key) or _read_piece(key, unkept)
            row += slots
        found = pair_slots.get(ahead)
        if found is None:
            key = (n, None, pair[1], False, ahead)
            second, second_ahead = get(key) or unkept.get(key) or _read_piece(key, unkept)
            key = (n, None, pair[0], True, second_ahead)
            first = (get(key) or unkept.get(key) or _read_piece(key, unkept))[0]
            found = pair_slots[ahead] = second + first
        row += found
        rows.append(row)
    return rows


def _hashed_matrix(n: int, pair, subgraphs) -> np.ndarray:
    """Hashed counts of every 1..n-gram of each subgraph's ranker input, one
    int64 row per subgraph, from one bincount over ``row * DEFAULT_HASH_DIM +
    slot`` of the slots :func:`_path_slots` reads."""
    dim = DEFAULT_HASH_DIM
    rows = _path_slots(n, pair, subgraphs)
    cells = np.repeat(np.arange(len(rows)) * dim, [len(row) for row in rows])
    cells += np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=len(cells))
    return np.bincount(cells, minlength=len(rows) * dim).reshape(len(rows), dim)


def score_subgraphs(model: RankerModel, pair: tuple[str, str],
                    subgraphs: Sequence[MetapathSubgraph],
                    lm: Optional[NgramLM] = None) -> np.ndarray:
    """Model scores in input order; only EMBEDDING_KINDS read ``lm``."""
    if not subgraphs:
        return np.zeros(0, dtype=np.float64)
    if model.kind == NEURAL:
        params = model.neural
        X = params.standardize(_dense_matrix(lm, pair, subgraphs))
        return _FlatScorer(params.w1, params.b1, params.w2, params.b2, len(X)).forward(X)
    if model.kind == GBDT:
        return model.gbdt.predict(_hashed_matrix(model.gbdt.n, pair, subgraphs))
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


def _runs(firsts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices ``firsts[k] .. firsts[k] + counts[k] - 1`` of every run k,
    run after run, and where each run begins among them."""
    begins = np.cumsum(counts) - counts
    return np.arange(counts.sum()) + np.repeat(firsts - begins, counts), begins


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
    each path ranks above every later path of its record, which is already
    sorted by descending relevance.  The loss inputs are checked once.  Each
    epoch gathers the rows, and RankNet's pairs, in visiting order, so a
    minibatch of ``config.batch`` records is a slice of those stacks and
    takes one in-place forward and backward pass through the loss's
    unchecked kernel.
    """
    records = _eligible_records(dataset, loss_kind)

    X = np.concatenate([_dense_matrix(lm, record_pair(record), record_subgraphs(record))
                        for record in records])
    y = np.asarray([mp.relscore for record in records for mp in record.metapaths],
                   dtype=np.float64)
    lengths = np.asarray([len(record.metapaths) for record in records])
    first_rows = np.cumsum(lengths) - lengths
    if loss_kind == RANKNET:
        # each record's (better, worse) row pairs, counted from its first row
        target = np.concatenate([np.triu_indices(n, 1) for n in lengths], axis=1)
        item_counts = lengths * (lengths - 1) // 2
    else:
        target = _stack_target(loss_kind, len(y), y, None, *_segments(len(y), first_rows))
        item_counts = lengths
    first_items = np.cumsum(item_counts) - item_counts

    x_mean = X.mean(axis=0)
    x_std = np.maximum(X.std(axis=0), 1e-8)
    X = (X - x_mean) / x_std

    rng = np.random.default_rng(config.seed)
    d, h = lm.d, DEFAULT_HIDDEN
    scorer = _FlatScorer(rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, h)), np.zeros(h),
                         rng.normal(0.0, 1.0 / np.sqrt(h), size=h), 0.0,
                         max_rows=int(np.sort(lengths)[-config.batch:].sum()))

    slot = np.arange(len(records)) % config.batch  # a record's place in its minibatch
    history: list[float] = []
    for epoch in range(config.epochs):
        learning_rate = config.learning_rate / (1.0 + config.lr_decay * epoch)
        order = rng.permutation(len(records))
        rows, begins = _runs(first_rows[order], lengths[order])
        items, item_begins = _runs(first_items[order], item_counts[order])
        X_epoch, target_epoch = X[rows], target[..., items]
        seg_epoch = np.repeat(slot, lengths[order])
        starts_epoch = begins - begins[np.arange(len(records)) - slot]
        if loss_kind == RANKNET:  # pairs count rows from their minibatch's first row
            target_epoch += np.repeat(starts_epoch, item_counts[order])
        bounds = [*begins[::config.batch].tolist(), len(y)]
        item_bounds = [*item_begins[::config.batch].tolist(), items.size]
        epoch_loss = 0.0
        for first, lo, hi, item_lo, item_hi in zip(
                range(0, len(records), config.batch), bounds, bounds[1:],
                item_bounds, item_bounds[1:]):
            starts = starts_epoch[first:first + config.batch]
            epoch_loss += scorer.loss_and_grads(X_epoch[lo:hi], _KERNELS[loss_kind],
                                                target_epoch[..., item_lo:item_hi], starts,
                                                seg_epoch[lo:hi])
            scorer.grad *= learning_rate / len(starts)
            scorer.flat -= scorer.grad
        mean_loss = epoch_loss / len(records)
        history.append(float(mean_loss))
        logger.debug("ranker epoch %d: %s loss %.5f", epoch + 1, loss_kind, mean_loss)

    params = NeuralParams(w1=scorer.w1, b1=scorer.b1, w2=scorer.w2, b2=float(scorer.flat[-1]),
                          x_mean=x_mean, x_std=x_std)
    return RankerModel(kind=NEURAL, loss_kind=loss_kind, seed=config.seed, neural=params,
                       train_loss_history=history)


def _split_gains(rows: np.ndarray, r: np.ndarray, n_cols: int, row_ptr: np.ndarray,
                 bin_ids: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Best variance-reduction gain of every column over ``rows`` and the bin
    below its threshold; -inf where no split leaves MIN_LEAF rows a side.

    Histogram method (Ke et al., NeurIPS 2017) over the nonzero counts only,
    as in sparsity-aware split finding (Chen & Guestrin, KDD 2016): the
    nonzero entries of row k are ``bin_ids[row_ptr[k]:row_ptr[k + 1]]``, each
    ``column * width + value``.  One bincount sums the residuals of every
    nonzero bin in row order, and a column's bin 0 is the node's total less
    its other bins.  A cumulative sum along the bins scores every threshold
    at once.  ``width`` is one more than the largest count; bins above a
    node's own largest value leave no row on the right, so they never
    score.
    """
    gains = np.full(n_cols, -np.inf)
    if width < 2:
        return gains, np.zeros(n_cols, dtype=np.int64)
    total_sum = r.sum()
    total_cnt = len(r)
    base = total_sum * total_sum / total_cnt
    counts = row_ptr[rows + 1] - row_ptr[rows]
    ids = bin_ids[_runs(row_ptr[rows], counts)[0]]
    sums = np.bincount(ids, weights=np.repeat(r, counts), minlength=n_cols * width)
    cnts = np.bincount(ids, minlength=n_cols * width)
    sums, cnts = sums.reshape(n_cols, width), cnts.reshape(n_cols, width)
    sums[:, 0] = total_sum - sums[:, 1:].sum(axis=1)
    cnts[:, 0] = total_cnt - cnts[:, 1:].sum(axis=1)
    left_sum = np.cumsum(sums, axis=1)[:, :-1]
    left_cnt = np.cumsum(cnts, axis=1)[:, :-1]
    right_sum = total_sum - left_sum
    right_cnt = total_cnt - left_cnt
    valid = (left_cnt >= MIN_LEAF) & (right_cnt >= MIN_LEAF)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.where(
            valid,
            left_sum ** 2 / left_cnt + right_sum ** 2 / right_cnt - base,
            -np.inf)
    bins_below = np.argmax(gain, axis=1)
    return gain[np.arange(n_cols), bins_below], bins_below


class _SparseCounts(NamedTuple):
    """The nonzero counts of an ``(n_rows x n_cols)`` count matrix.  Row k's
    are ``bin_ids[row_ptr[k]:row_ptr[k + 1]]``, each ``column * width +
    value``, as :func:`_split_gains` reads them; ``sorted_bins`` holds the
    same bin ids sorted, and ``sorted_rows`` the row of each."""

    n_cols: int
    width: int
    row_ptr: np.ndarray
    bin_ids: np.ndarray
    sorted_bins: np.ndarray
    sorted_rows: np.ndarray


def _sparse_counts(blocks) -> _SparseCounts:
    """The nonzero counts of the row blocks stacked in order.  Each block is
    read and dropped in turn; only its nonzeros are kept."""
    row_counts, columns, values = [], [], []
    for block in blocks:
        rows, cols = np.nonzero(block)
        row_counts.append(np.bincount(rows, minlength=len(block)))
        columns.append(cols)
        values.append(block[rows, cols].astype(np.int64))
    n_cols = block.shape[1]
    values = np.concatenate(values)
    width = int(values.max(initial=0)) + 1
    bin_ids = np.concatenate(columns) * width + values
    del columns, values
    counts = np.concatenate(row_counts)
    order = np.argsort(bin_ids)
    return _SparseCounts(
        n_cols=n_cols, width=width,
        row_ptr=np.concatenate([[0], np.cumsum(counts)]), bin_ids=bin_ids,
        sorted_bins=bin_ids[order],
        sorted_rows=np.repeat(np.arange(len(counts)), counts)[order])


def _fit_tree(residuals: np.ndarray, max_depth: int,
              counts: _SparseCounts) -> tuple[RegressionTree, np.ndarray]:
    """Greedy variance-reduction regression tree on integer count features,
    and the value of the leaf each row falls into; row k's residual is
    ``residuals[k]`` and its counts are row k of ``counts``.

    Every leaf keeps at least MIN_LEAF rows.  Columns are taken in order,
    and a column replaces the chosen one when its best gain is higher by
    more than 1e-12; the split is at the chosen column's first best
    threshold.  The rows it sends right are those of the chosen column's
    entries above the threshold, one run of ``counts.sorted_bins``.

    The tree grows from a stack of pending nodes, not from a nested function
    that calls itself: such a function's closure refers to the function,
    and that cycle would keep each round's ``residuals`` and
    ``leaf_values`` alive until the cyclic garbage collector ran."""
    tree = RegressionTree(feature=[], threshold=[], left=[], right=[], value=[])
    leaf_values = np.empty(len(residuals))
    # Nodes still to grow: (rows, depth, parent, the parent's ``left`` or
    # ``right`` list).  The left child is popped first, so nodes are
    # numbered in depth-first order, left before right.
    pending = [(np.arange(len(residuals)), 0, -1, tree.left)]
    while pending:
        rows, depth, parent, side = pending.pop()
        node = len(tree.feature)
        if parent >= 0:
            side[parent] = node
        r = residuals[rows]
        tree.feature.append(-1)
        tree.threshold.append(0.0)
        tree.left.append(-1)
        tree.right.append(-1)
        tree.value.append(float(r.mean()))
        best_feature = -1
        if depth < max_depth and len(rows) >= 2 * MIN_LEAF and np.ptp(r) != 0.0:
            gains, bins_below = _split_gains(rows, r, counts.n_cols, counts.row_ptr,
                                             counts.bin_ids, counts.width)
            best_gain = 0.0
            while True:
                ahead = np.flatnonzero(gains[best_feature + 1:] > best_gain + 1e-12)
                if not ahead.size:
                    break
                best_feature += 1 + int(ahead[0])
                best_gain = float(gains[best_feature])
        if best_feature < 0:
            leaf_values[rows] = tree.value[node]
            continue
        bin_below = int(bins_below[best_feature])
        above = slice(*np.searchsorted(
            counts.sorted_bins, [best_feature * counts.width + bin_below + 1,
                                 (best_feature + 1) * counts.width]))
        mask = ~np.isin(rows, counts.sorted_rows[above])
        tree.feature[node] = best_feature
        tree.threshold[node] = bin_below + 0.5
        pending.append((rows[~mask], depth + 1, node, tree.right))
        pending.append((rows[mask], depth + 1, node, tree.left))
    return tree, leaf_values


def train_gbdt_ranker(dataset: Sequence[RankedPairRecord], lm: NgramLM,
                      config: TrainConfig = TrainConfig()) -> RankerModel:
    """Squared-error gradient boosting on relevance scores.

    Each round fits a tree to the current residuals; with a learning rate in
    (0, 2] the training RMSE can never increase, and the per-round values
    are recorded on the model.  Only ``lm.n`` is read; the ensemble keeps it.
    The hashed counts are read one record at a time and only their nonzeros
    kept, so no dense matrix of the whole dataset is built.
    """
    records = _eligible_records(dataset, RMSE)
    y = np.asarray([mp.relscore for record in records for mp in record.metapaths],
                   dtype=np.float64)
    counts = _sparse_counts(_hashed_matrix(lm.n, record_pair(record), record_subgraphs(record))
                            for record in records)

    base_score = float(y.mean())
    predictions = np.full(len(y), base_score)
    history = [float(np.sqrt(np.mean((y - predictions) ** 2)))]
    trees = []
    for round_idx in range(config.gbdt_rounds):
        tree, leaf_values = _fit_tree(y - predictions, config.gbdt_max_depth, counts)
        trees.append(tree)
        predictions += config.gbdt_learning_rate * leaf_values
        rmse = float(np.sqrt(np.mean((y - predictions) ** 2)))
        history.append(rmse)
        logger.debug("gbdt round %d: train rmse %.5f", round_idx + 1, rmse)

    ensemble = GbdtEnsemble(base_score=base_score, learning_rate=config.gbdt_learning_rate,
                            n=lm.n, trees=tuple(trees))
    return RankerModel(kind=GBDT, loss_kind=None, seed=config.seed, gbdt=ensemble,
                       train_rmse_history=history)


def save_model(model: RankerModel, path, lm: Optional[NgramLM] = None) -> None:
    """Write the model as one JSON document; only EMBEDDING_KINDS keep ``lm``."""
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
        "ngram_lm": lm.to_dict() if model.kind in EMBEDDING_KINDS else None,
    }
    write_json(path, doc)


def load_model(path) -> tuple[RankerModel, Optional[NgramLM]]:
    """The model a :func:`save_model` file holds, and its LM or None."""
    return read_json(path, _model_from_doc)


def _model_from_doc(doc: dict) -> tuple[RankerModel, Optional[NgramLM]]:
    """The model a v2 document holds, with just the sections its kind reads."""
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {doc.get('version')!r}")
    if doc["feature"] != FEATURE:
        raise ValueError(f"unsupported feature settings {doc['feature']!r}")
    kind = doc["kind"]
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    for section, read in (("neural", kind == NEURAL), ("gbdt", kind == GBDT),
                          ("ngram_lm", kind in EMBEDDING_KINDS)):
        if (doc[section] is not None) != read:
            raise ValueError(f"a {kind} model must {'' if read else 'not '}hold {section}")
    model = read_fields(RankerModel, doc)
    lm = NgramLM.from_dict(doc["ngram_lm"]) if kind in EMBEDDING_KINDS else None
    if kind == NEURAL:
        _check_neural_shapes(model.neural, lm.d)
    if kind == GBDT:
        _check_gbdt(model.gbdt)
    return model, lm


def _check_gbdt(gbdt: GbdtEnsemble) -> None:
    """Raise a ValueError unless the ensemble is one the trainer makes, with
    at least one tree, and every walk through a tree ends at one of its leaves."""
    if gbdt.learning_rate <= 0:
        raise ValueError(f"gbdt.learning_rate must be positive, not {gbdt.learning_rate!r}")
    checked_order(gbdt.n)
    if not gbdt.trees:
        raise ValueError("gbdt.trees must hold at least one tree")
    for t, tree in enumerate(gbdt.trees):
        size = len(tree.feature)
        if {len(nodes) for nodes in (tree.threshold, tree.left, tree.right, tree.value)} != {size}:
            raise ValueError(f"gbdt.trees[{t}]: tree node lists must have one length")
        for node, (feature, left, right) in enumerate(zip(tree.feature, tree.left, tree.right)):
            if not -1 <= feature < DEFAULT_HASH_DIM:
                raise ValueError(f"gbdt.trees[{t}]: tree node {node} splits on feature "
                                 f"{feature!r}, not one in [-1, {DEFAULT_HASH_DIM})")
            if feature >= 0 and not all(node < child < size for child in (left, right)):
                raise ValueError(f"gbdt.trees[{t}]: tree node {node} has children {left!r} "
                                 f"and {right!r}, not later nodes of its tree")


def _check_neural_shapes(params: NeuralParams, d: int) -> None:
    """Raise a ValueError unless the scorer's weights fit features of width
    ``d``: ``w1`` (d, h), ``b1`` and ``w2`` (h,), and the standardization
    (d,), with a positive ``x_std``, or absent."""
    if (params.x_mean is None) != (params.x_std is None):
        raise ValueError("neural x_mean and x_std must both be arrays or both null")
    if params.w1.ndim != 2 or params.w1.shape[0] != d:
        raise ValueError(f"neural w1 must have shape ({d}, hidden), not {params.w1.shape}")
    hidden = params.w1.shape[1]
    for name, shape in (("b1", (hidden,)), ("w2", (hidden,)), ("x_mean", (d,)),
                        ("x_std", (d,))):
        value = getattr(params, name)
        if value is not None and value.shape != shape:
            raise ValueError(f"neural {name} must have shape {shape}, not {value.shape}")
    if params.x_std is not None and not np.all(params.x_std > 0):
        raise ValueError("neural x_std must be positive")
