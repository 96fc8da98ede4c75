"""Subgraph relevance estimation.

Each candidate subgraph for a variable pair is embedded in a classification
prompt; a subgraph counts as informative when the backend then predicts the
pair's true label.  The relevance score is 1 + p for a correct prediction
and 1 - p for a wrong one, where p is the label probability, so scores live
in [0, 2] with 1.0 the no-signal midpoint.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .errors import NoSuchNodeError
from .kg import KnowledgeGraph, MetapathSubgraph, enumerate_subgraphs, sample_subgraphs
from .llm import CAUSAL, NON_CAUSAL, PATH_BLOCK_MARKER, PairResults, ask_label, map_pairs
from .util import _unique_qids, descending_order, read_jsonl, stable_hash
from .verbalize import HYPHEN_STYLE, verbalize

LABELS = (CAUSAL, NON_CAUSAL)

DEFAULT_INSTRUCTION = (
    "Given the following information, classify the relation between the pair. "
    "If there is a cause-effect relationship, state causal; otherwise, state non-causal."
)

DEFAULT_SRE_TEMPLATE = (
    "{instruction}\n\n"
    "[Pair]:\n{pair}\n\n"
    "[Textual context]:\n{context}\n\n"
    f"{PATH_BLOCK_MARKER} {{paths}}\n\n"
    "[Relation]: "
)

DEFAULT_K_MAX = 10


@dataclass(frozen=True)
class PairInstance:
    """One labeled variable pair with its textual context."""

    qid: str
    e1: str
    e2: str
    context: str
    groundtruth: str

    def __post_init__(self):
        if not all(isinstance(v, str) for v in (self.e1, self.e2, self.context)):
            raise TypeError(f"{self.qid}: e1, e2 and context must be strings")
        if self.e1 == self.e2:
            raise ValueError(f"{self.qid}: pair variables must differ")
        if self.groundtruth not in LABELS:
            raise ValueError(f"{self.qid}: groundtruth must be one of {LABELS}")

    def to_dict(self) -> dict:
        return {"qid": self.qid, "e1": self.e1, "e2": self.e2,
                "context": self.context, "label": self.groundtruth}

    @classmethod
    def from_dict(cls, d: dict) -> "PairInstance":
        return cls(qid=str(d["qid"]), e1=d["e1"], e2=d["e2"],
                   context=d.get("context", ""), groundtruth=d["label"])


@dataclass(frozen=True)
class RelevanceScore:
    """Outcome of scoring one (pair, subgraph) prompt."""

    s: float
    p: float
    predicted: Optional[str]
    correct: bool
    mean_logprob: Optional[float]

    def __post_init__(self):
        if not 0.0 <= self.s <= 2.0:
            raise ValueError(f"relevance score {self.s} outside [0, 2]")


@dataclass(frozen=True)
class RankedMetapath:
    """One scored path inside a ranked-pair record.

    ``probscore`` is the raw mean token log-probability behind ``relscore``;
    it is None when the backend output carried no recognizable label.
    """

    pathid: int
    relscore: float
    probscore: Optional[float]
    relevant: str
    stops: str
    reltypes: str
    nodelabels: str

    def __post_init__(self):
        if not all(isinstance(v, str) for v in (self.stops, self.reltypes, self.nodelabels)):
            raise TypeError(f"path {self.pathid}: stops, reltypes and nodelabels must be strings")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RankedMetapath":
        return cls(
            pathid=int(d["pathid"]),
            relscore=float(d["relscore"]),
            probscore=None if d.get("probscore") is None else float(d["probscore"]),
            relevant=str(d["relevant"]),
            stops=d["stops"],
            reltypes=d["reltypes"],
            nodelabels=d["nodelabels"],
        )


@dataclass(frozen=True)
class RankedPairRecord:
    """A variable pair with its subgraphs sorted by descending relevance."""

    qid: str
    e1: str
    e2: str
    groundtruth: str
    metapaths: tuple[RankedMetapath, ...]

    def __post_init__(self):
        if not all(isinstance(v, str) for v in (self.e1, self.e2)):
            raise TypeError(f"{self.qid}: e1 and e2 must be strings")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RankedPairRecord":
        return cls(
            qid=str(d["qid"]),
            e1=d["e1"],
            e2=d["e2"],
            groundtruth=str(d["groundtruth"]),
            metapaths=tuple(RankedMetapath.from_dict(m) for m in d["metapaths"]),
        )


def encode_groundtruth(label: str) -> str:
    return "1" if label == CAUSAL else "0"


def build_sre_prompt(instance: PairInstance, subgraph: MetapathSubgraph) -> str:
    """Fill the relevance-estimation template for one candidate path."""
    return DEFAULT_SRE_TEMPLATE.format(
        instruction=DEFAULT_INSTRUCTION,
        pair=f"{instance.e1} and {instance.e2}",
        context=instance.context,
        paths=verbalize(subgraph, HYPHEN_STYLE),
    )


def score_subgraph(instance: PairInstance, subgraph: MetapathSubgraph,
                   backend) -> RelevanceScore:
    """Score one candidate: 1 + p when the backend is right, 1 - p when wrong.

    Output that names no label counts as a wrong prediction with p = 0,
    which lands exactly on the score midpoint 1.0.
    """
    label, p, _backend_id = ask_label(backend, build_sre_prompt(instance, subgraph))
    if label is None:
        return RelevanceScore(s=1.0, p=0.0, predicted=None, correct=False, mean_logprob=None)
    correct = label == instance.groundtruth
    s = 1.0 + p if correct else 1.0 - p
    return RelevanceScore(s=s, p=p, predicted=label, correct=correct,
                          mean_logprob=math.log(p) if p > 0 else None)


def rank_pair(instance: PairInstance, subgraphs: Sequence[MetapathSubgraph],
              backend) -> RankedPairRecord:
    """Score every candidate and emit the record sorted by descending score.

    Ties keep the original candidate order; path ids are assigned 1..k in
    the sorted order.
    """
    if not subgraphs:
        raise ValueError(f"{instance.qid}: no candidate subgraphs")
    scores = [score_subgraph(instance, sg, backend) for sg in subgraphs]
    metapaths = []
    for rank, idx in enumerate(descending_order([sc.s for sc in scores]), start=1):
        sg, sc = subgraphs[idx], scores[idx]
        metapaths.append(RankedMetapath(
            pathid=rank,
            relscore=sc.s,
            probscore=sc.mean_logprob,
            relevant="1" if sc.correct else "0",
            stops=" - ".join(sg.node_names),
            reltypes=" - ".join(sg.edge_labels),
            nodelabels=" - ".join(sg.node_types),
        ))
    return RankedPairRecord(
        qid=instance.qid,
        e1=instance.e1,
        e2=instance.e2,
        groundtruth=encode_groundtruth(instance.groundtruth),
        metapaths=tuple(metapaths),
    )


def candidate_subgraphs(instance: PairInstance, kg: KnowledgeGraph, max_hops: int = 4,
                        candidate_limit: Optional[int] = 64, k_max: int = DEFAULT_K_MAX,
                        seed: int = 0) -> list[MetapathSubgraph]:
    """Shortest-path candidates for one pair, capped to k_max by sampling."""
    try:
        found = enumerate_subgraphs(kg, (instance.e1, instance.e2), max_hops=max_hops,
                                    limit=candidate_limit,
                                    seed=stable_hash(seed, "enumerate", instance.qid))
    except NoSuchNodeError:
        return []
    return sample_subgraphs(found, k_max, seed=stable_hash(seed, "sample", instance.qid))


def estimate_relevance(jobs: Sequence[tuple[PairInstance, Sequence[MetapathSubgraph]]],
                       backend) -> PairResults:
    """Rank each (instance, candidates) job on up to ``backend.parallelism``
    threads.  A backend failure on one pair skips and counts that pair rather
    than aborting the run."""
    return map_pairs(lambda job: rank_pair(job[0], job[1], backend), jobs, backend,
                     qid=lambda job: job[0].qid)


def read_instances(path) -> list[PairInstance]:
    """Parse a JSON Lines instance file; its qids are unique."""
    return read_jsonl(path, _unique_qids(PairInstance.from_dict))


def read_ranked_dataset(path) -> list[RankedPairRecord]:
    """Parse a ranked-dataset JSON Lines file."""
    return read_jsonl(path, RankedPairRecord.from_dict)
