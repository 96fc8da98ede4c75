"""Zero-shot causal classification with ranked subgraphs as prompt context,
plus the evaluation metrics used to compare approaches.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import NoSuchNodeError
from .kg import KnowledgeGraph, MetapathSubgraph, enumerate_subgraphs
from .llm import CAUSAL, NON_CAUSAL, PATH_BLOCK_MARKER, PairResults, ask_label, map_pairs
from .ltr.models import RankerModel, rank_subgraphs
from .ltr.ngram import NgramLM
from .relevance import DEFAULT_INSTRUCTION, PairInstance
from .util import _unique_qids, read_jsonl
from .verbalize import PLAIN_ARROWS_STYLE, VerbalizationStyle, verbalize

DEFAULT_DISCOVERY_TEMPLATE = (
    "{instruction}\n\n"
    "[Textual context]:\n{context}\n\n"
    f"{PATH_BLOCK_MARKER}\n{{paths}}\n\n"
    "The relation between {a} and {b} is"
)


@dataclass(frozen=True)
class CausalPrediction:
    """Predicted label and confidence for one pair; predicted is None when
    the generated text named no label."""

    qid: str
    predicted: Optional[str]
    p: float
    subgraphs_used: tuple[str, ...]
    backend_id: str

    def __post_init__(self):
        if self.predicted not in (CAUSAL, NON_CAUSAL, None):
            raise ValueError(f"predicted must be {CAUSAL!r}, {NON_CAUSAL!r} or null, "
                             f"not {self.predicted!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CausalPrediction":
        return cls(qid=str(d["qid"]), predicted=d.get("predicted"), p=float(d["p"]),
                   subgraphs_used=tuple(d.get("subgraphs_used", ())),
                   backend_id=d.get("backend_id", ""))


@dataclass(frozen=True)
class DiscoveryConfig:
    """Settings of the per-pair classification pipeline; the ``k`` >= 1 top
    ranked paths go into the prompt, after ``DEFAULT_INSTRUCTION``."""

    k: int = 1
    max_hops: int = 4
    candidate_limit: Optional[int] = 64
    seed: int = 0
    style: VerbalizationStyle = PLAIN_ARROWS_STYLE

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


def build_discovery_prompt(instance: PairInstance,
                           top_subgraphs: Sequence[MetapathSubgraph],
                           style: VerbalizationStyle = PLAIN_ARROWS_STYLE) -> str:
    """Zero-shot prompt with one verbalized path per line (possibly none)."""
    return DEFAULT_DISCOVERY_TEMPLATE.format(
        instruction=DEFAULT_INSTRUCTION,
        context=instance.context,
        paths="\n".join(verbalize(sg, style) for sg in top_subgraphs),
        a=instance.e1,
        b=instance.e2,
    )


def classify_pair(instance: PairInstance, kg: Optional[KnowledgeGraph],
                  ranker: Optional[RankerModel], backend,
                  config: DiscoveryConfig = DiscoveryConfig(),
                  lm: Optional[NgramLM] = None,
                  candidates: Optional[Sequence[MetapathSubgraph]] = None
                  ) -> CausalPrediction:
    """Enumerate, rank, prompt, and parse for one pair.

    Pairs without any subgraph (or with names missing from the graph) fall
    back to the bare prompt.  Pass ``candidates`` to skip enumeration; ``kg``
    is then not read and may be None.  ``ranker=None`` produces the bare
    prompt (the no-subgraph setting) without enumerating.
    """
    if ranker is not None and candidates is None:
        try:
            candidates = enumerate_subgraphs(
                kg, (instance.e1, instance.e2), max_hops=config.max_hops,
                limit=config.candidate_limit, seed=config.seed)
        except NoSuchNodeError:
            candidates = []

    if ranker is not None and candidates:
        ranked = rank_subgraphs(ranker, (instance.e1, instance.e2), candidates, lm)
        top = [sg for sg, _score in ranked[:config.k]]
    else:
        top = []

    label, p, backend_id = ask_label(
        backend, build_discovery_prompt(instance, top, style=config.style))
    return CausalPrediction(
        qid=instance.qid,
        predicted=label,
        p=p,
        subgraphs_used=tuple(verbalize(sg, config.style) for sg in top),
        backend_id=backend_id,
    )


def classify_pairs(instances: Sequence[PairInstance], kg: Optional[KnowledgeGraph],
                   ranker: Optional[RankerModel], backend,
                   config: DiscoveryConfig = DiscoveryConfig(),
                   lm: Optional[NgramLM] = None) -> PairResults:
    """:func:`classify_pair` for every instance on up to ``backend.parallelism``
    threads; the records are the predictions, in input order.  A backend
    failure on one pair skips and counts that pair rather than aborting the
    run.  ``kg`` is not read, and may be None, when ``ranker`` is None."""
    return map_pairs(
        lambda instance: classify_pair(instance, kg, ranker, backend, config=config, lm=lm),
        instances, backend, qid=lambda instance: instance.qid)


@dataclass(frozen=True)
class ClassificationMetrics:
    """Precision/recall/F1 on the percent scale, with the confusion counts.

    ``degenerate`` flags a precision or recall that was pinned to 100
    because its denominator was zero; ``missing`` counts gold pairs that had
    no prediction (each is counted as a wrong answer).
    """

    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int
    degenerate: tuple[str, ...] = ()
    missing: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean on whatever scale the inputs share."""
    if precision + recall <= 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def metrics_from_counts(tp: int, fp: int, fn: int, tn: int) -> ClassificationMetrics:
    degenerate = []
    if tp + fp > 0:
        precision = 100.0 * tp / (tp + fp)
    else:
        precision = 100.0
        degenerate.append("precision")
    if tp + fn > 0:
        recall = 100.0 * tp / (tp + fn)
    else:
        recall = 100.0
        degenerate.append("recall")
    return ClassificationMetrics(precision=precision, recall=recall,
                                 f1=f1_score(precision, recall),
                                 tp=tp, fp=fp, fn=fn, tn=tn,
                                 degenerate=tuple(degenerate))


def evaluate_classification(predictions: Sequence[CausalPrediction],
                            golds: Sequence[PairInstance]) -> ClassificationMetrics:
    """P/R/F1 with the causal label as the positive class.

    A prediction without a recognizable label counts as wrong whatever the
    gold label is: a miss on causal gold, a false alarm on non-causal gold.
    A gold pair without a prediction counts the same way and is reported as
    ``missing``; a prediction for a qid the golds lack is a ValueError.
    """
    gold_labels = {inst.qid: inst.groundtruth for inst in golds}
    pred_qids = {p.qid for p in predictions}
    unknown = sorted(pred_qids - set(gold_labels))
    if unknown:
        raise ValueError(f"prediction qid not in the gold file: {unknown[0]!r}")
    missing = [qid for qid in gold_labels if qid not in pred_qids]
    answers = [(pred.qid, pred.predicted) for pred in predictions]
    answers += [(qid, None) for qid in missing]
    tp = fp = fn = tn = 0
    for qid, predicted in answers:
        if gold_labels[qid] == CAUSAL:
            if predicted == CAUSAL:
                tp += 1
            else:
                fn += 1
        elif predicted is None or predicted == CAUSAL:
            fp += 1
        else:
            tn += 1
    return replace(metrics_from_counts(tp, fp, fn, tn), missing=len(missing))


def aggregate_graph(pair_labels: Mapping[tuple[str, str], Optional[str]],
                    variables: Sequence[str]) -> np.ndarray:
    """Binary adjacency matrix over the ordered variable pairs.

    Entry (i, j) is 1 exactly when the pair (variables[i], variables[j]) was
    predicted causal; the diagonal is zero and unseen pairs stay zero.
    """
    n = len(variables)
    adj = np.zeros((n, n), dtype=np.int64)
    for i, a in enumerate(variables):
        for j, b in enumerate(variables):
            if i != j and pair_labels.get((a, b)) == CAUSAL:
                adj[i, j] = 1
    return adj


def _checked_adjacency(matrix, n: int) -> np.ndarray:
    """``matrix`` as an array, checked to be a binary n x n adjacency matrix
    with a zero diagonal."""
    m = np.asarray(matrix)
    if m.shape != (n, n):
        raise ValueError(f"adjacency matrix must have shape {(n, n)}, not {m.shape}")
    if not np.isin(m, (0, 1)).all():
        raise ValueError("adjacency matrices must be binary")
    if np.trace(np.abs(m)) != 0:
        raise ValueError("adjacency matrices must have a zero diagonal")
    return m


def hamming_distance(adj: np.ndarray, gold_adj: np.ndarray) -> tuple[int, float]:
    """(mismatch count over all n*n cells, count normalized by n*n)."""
    n = len(adj)
    adj, gold_adj = _checked_adjacency(adj, n), _checked_adjacency(gold_adj, n)
    hd = int(np.sum(adj != gold_adj))
    return hd, hd / (n * n)


def read_predictions(path) -> list[CausalPrediction]:
    return read_jsonl(path, _unique_qids(CausalPrediction.from_dict))
