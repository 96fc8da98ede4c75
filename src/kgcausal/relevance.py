"""Subgraph relevance estimation.

Each candidate subgraph for a variable pair is embedded in a classification
prompt; a subgraph counts as informative when the backend then predicts the
pair's true label.  The relevance score is 1 + p for a correct prediction
and 1 - p for a wrong one, where p is the label probability, so scores live
in [0, 2] with 1.0 the no-signal midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional, Sequence

from .kg import KnowledgeGraph, MetapathSubgraph, enumerate_subgraphs, sample_subgraphs
from .llm import CAUSAL, NON_CAUSAL, PATH_BLOCK_MARKER, ask_label, probability
from .util import _unique_qids, descending_order, read_fields, read_jsonl, stable_hash
from .verbalize import HYPHEN, verbalize

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


@dataclass(frozen=True, kw_only=True)
class PairInstance:
    """One labeled variable pair with its textual context; files hold its label as ``label``."""

    qid: str
    e1: str
    e2: str
    context: str = ""
    groundtruth: str = field(metadata={"key": "label"})

    def __post_init__(self):
        if self.e1 == self.e2:
            raise ValueError(f"{self.qid}: pair variables must differ")
        if self.groundtruth not in LABELS:
            raise ValueError(f"{self.qid}: groundtruth must be one of {LABELS}")

    def to_dict(self) -> dict:
        return {"qid": self.qid, "e1": self.e1, "e2": self.e2,
                "context": self.context, "label": self.groundtruth}


@dataclass(frozen=True)
class RankedMetapath:
    """One scored path inside a ranked-pair record.

    ``probscore`` is the raw mean token log-probability behind ``relscore``;
    it is None when the backend output carried no recognizable label.
    """

    pathid: int
    relscore: float
    probscore: Optional[float]
    relevant: Literal["1", "0"]
    stops: str
    reltypes: str
    nodelabels: str


@dataclass(frozen=True)
class RankedPairRecord:
    """A variable pair with its subgraphs sorted by descending relevance."""

    qid: str
    e1: str
    e2: str
    groundtruth: Literal["1", "0"]
    metapaths: tuple[RankedMetapath, ...]

    def to_dict(self) -> dict:
        """The fields as they are, equal to ``asdict``'s deep copy."""
        return {**vars(self), "metapaths": tuple(vars(mp).copy() for mp in self.metapaths)}


def parse_ranked_record(d: dict) -> RankedPairRecord:
    """The record a ranked-dataset row holds, with every ``relscore`` in [0, 2]."""
    record = read_fields(RankedPairRecord, d)
    for i, mp in enumerate(record.metapaths):
        if not 0.0 <= mp.relscore <= 2.0:
            raise ValueError(f"metapaths[{i}].relscore must lie in [0, 2], not {mp.relscore!r}")
    return record


def build_sre_prompt(instance: PairInstance, subgraph: MetapathSubgraph) -> str:
    """Fill the relevance-estimation template for one candidate path."""
    return DEFAULT_SRE_TEMPLATE.format(
        instruction=DEFAULT_INSTRUCTION,
        pair=f"{instance.e1} and {instance.e2}",
        context=instance.context,
        paths=verbalize(subgraph, HYPHEN),
    )


def score_subgraph(instance: PairInstance, subgraph: MetapathSubgraph,
                   backend) -> tuple[float, Optional[float], str]:
    """``(relscore, probscore, relevant)`` of one candidate's ranked entry.

    ``relscore`` is 1 + p when the backend is right and 1 - p when wrong, and
    ``probscore`` is the mean log-probability p stands for.  Output that
    names no label counts as a wrong prediction with p = 0, which lands
    exactly on the score midpoint 1.0, and a null ``probscore``.
    """
    label, mean_logprob, _ = ask_label(backend, build_sre_prompt(instance, subgraph))
    p = probability(mean_logprob)
    correct = label == instance.groundtruth
    return (1.0 + p if correct else 1.0 - p), mean_logprob, "1" if correct else "0"


def rank_pair(instance: PairInstance, subgraphs: Sequence[MetapathSubgraph],
              backend) -> RankedPairRecord:
    """Score every candidate and emit the record sorted by descending score.

    Ties keep the original candidate order; path ids are assigned 1..k in
    the sorted order.
    """
    if not subgraphs:
        raise ValueError(f"{instance.qid}: no candidate subgraphs")
    scores = [score_subgraph(instance, sg, backend) for sg in subgraphs]
    order = descending_order([relscore for relscore, _, _ in scores])
    metapaths = tuple(
        RankedMetapath(rank, *scores[i], stops=" - ".join(subgraphs[i].node_names),
                       reltypes=" - ".join(subgraphs[i].edge_labels),
                       nodelabels=" - ".join(subgraphs[i].node_types))
        for rank, i in enumerate(order, start=1))
    return RankedPairRecord(qid=instance.qid, e1=instance.e1, e2=instance.e2,
                            groundtruth="1" if instance.groundtruth == CAUSAL else "0",
                            metapaths=metapaths)


def candidate_subgraphs(instance: PairInstance, kg: KnowledgeGraph, max_hops: int = 4,
                        candidate_limit: Optional[int] = 64, k_max: int = DEFAULT_K_MAX,
                        seed: int = 0) -> list[MetapathSubgraph]:
    """Shortest-path candidates for one pair, capped to k_max by sampling;
    none when a variable names no node of the graph."""
    found = enumerate_subgraphs(kg, (instance.e1, instance.e2), max_hops=max_hops,
                                limit=candidate_limit,
                                seed=stable_hash(seed, "enumerate", instance.qid))
    return sample_subgraphs(found, k_max, seed=stable_hash(seed, "sample", instance.qid))


def read_instances(path) -> list[PairInstance]:
    """Parse a JSON Lines instance file; its qids are unique."""
    return read_jsonl(path, _unique_qids(lambda d: read_fields(PairInstance, d)))


def read_ranked_dataset(path) -> list[RankedPairRecord]:
    """Parse a ranked-dataset JSON Lines file; its qids are unique."""
    return read_jsonl(path, _unique_qids(parse_ranked_record))
