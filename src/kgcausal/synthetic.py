"""Synthetic knowledge graphs with a planted causal signal.

Every causal pair is connected through one intermediate node of a marker
type whose display name also carries the marker tokens, so the signal
survives name-only verbalization; non-causal pairs only get decoy paths.
Pairing this world with a mock backend configured on the marker tokens
gives every stage of the pipeline a known ground truth to recover.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from .kg import EdgeRecord, KnowledgeGraph, NodeRecord
from .llm import CAUSAL, NON_CAUSAL, MockOracleConfig
from .relevance import PairInstance
from .util import write_jsonl

MOTIF_TYPE = "StressHormone"
MOTIF_NAME_PREFIX = "stress hormone"

_DECOY_TYPES = ("Protein", "Anatomy", "Pathway", "BiologicalProcess")
_DECOY_RELATIONS = ("binds", "expresses", "participates_in", "interacts_with")
_MOTIF_RELATIONS = ("upregulates", "causes")


@dataclass
class SyntheticWorld:
    kg: KnowledgeGraph
    instances: list[PairInstance]
    mock_config: MockOracleConfig
    nodes: list[NodeRecord]
    edges: list[EdgeRecord]


def make_planted_world(n_pairs: int = 220, decoys_per_pair: int = 4, seed: int = 7,
                       flip_rate: float = 0.02, base_confidence: float = 0.9
                       ) -> SyntheticWorld:
    """Build the graph, the labeled pairs, and a matching mock configuration.

    Alternating pairs are causal.  Every pair gets decoys_per_pair + 1
    two-hop candidate paths: causal pairs trade one decoy for a path
    through a marker node, inserted at a seeded position so its enumeration
    order varies, and non-causal pairs get an extra decoy so candidate
    counts carry no label signal.
    """
    rng = random.Random(seed)
    nodes: list[NodeRecord] = []
    edges: list[EdgeRecord] = []
    instances: list[PairInstance] = []
    mid_counter = 0

    for i in range(n_pairs):
        causal = i % 2 == 0
        compound = NodeRecord(id=f"c{i:04d}", name=f"compound c{i:04d}", node_type="Compound")
        disease = NodeRecord(id=f"d{i:04d}", name=f"disease d{i:04d}", node_type="Disease")
        nodes.extend((compound, disease))

        n_decoys = decoys_per_pair if causal else decoys_per_pair + 1
        specs = []
        for _ in range(n_decoys):
            decoy_type = rng.choice(_DECOY_TYPES)
            specs.append(("decoy", decoy_type))
        if causal:
            specs.insert(rng.randrange(len(specs) + 1), ("motif", MOTIF_TYPE))

        for kind, node_type in specs:
            mid_id = f"m{mid_counter:05d}"
            mid_counter += 1
            if kind == "motif":
                name = f"{MOTIF_NAME_PREFIX} {mid_id}"
                rel_in, rel_out = _MOTIF_RELATIONS
            else:
                name = f"{node_type.lower()} {mid_id}"
                rel_in = rng.choice(_DECOY_RELATIONS)
                rel_out = rng.choice(_DECOY_RELATIONS)
            nodes.append(NodeRecord(id=mid_id, name=name, node_type=node_type))
            edges.append(EdgeRecord(head=compound.id, relation=rel_in, tail=mid_id))
            edges.append(EdgeRecord(head=mid_id, relation=rel_out, tail=disease.id))

        instances.append(PairInstance(
            qid=f"q{i:04d}",
            e1=compound.name,
            e2=disease.name,
            context=(f"{compound.name} was observed together with {disease.name} "
                     f"in screening batch {i}."),
            groundtruth=CAUSAL if causal else NON_CAUSAL,
        ))

    mock_config = MockOracleConfig(
        causal_motifs=((MOTIF_NAME_PREFIX,),),
        base_confidence=base_confidence,
        noise_seed=seed,
        flip_rate=flip_rate,
    )
    kg = KnowledgeGraph(nodes, edges)
    return SyntheticWorld(kg=kg, instances=instances, mock_config=mock_config,
                          nodes=nodes, edges=edges)


def write_kg_jsonl(world: SyntheticWorld, path) -> Path:
    """Write the world's graph in the triples-jsonl snapshot format."""
    by_id = {n.id: n for n in world.nodes}

    def endpoint(node_id: str) -> dict:
        node = by_id[node_id]
        return {"id": node.id, "name": node.name, "type": node.node_type}

    write_jsonl(path, ({"head": endpoint(e.head), "relation": e.relation,
                        "tail": endpoint(e.tail)} for e in world.edges))
    return Path(path)


def write_instances_jsonl(instances, path) -> Path:
    write_jsonl(path, [inst.to_dict() for inst in instances])
    return Path(path)
