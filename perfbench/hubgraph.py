"""Hub-heavy knowledge graph with a planted causal motif on some variable pairs.

Every variable links to a few universal hubs and a random share of the
other hubs, so any two variables are joined by many 2-hop paths through
shared hubs and there is no shorter path.  Thousands of leaf nodes hang off
the hubs and put the whole graph in one component, which is what makes a
breadth-first search from one endpoint expensive.  For each planted pair a
"stress hormone" node joins the two variables, adding one more 2-hop path;
the causal relation is planted on the unordered pair, so both orientations
are labeled causal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from kgcausal.kg import EdgeRecord, KnowledgeGraph, NodeRecord
from kgcausal.llm import CAUSAL, NON_CAUSAL, MockOracleConfig
from kgcausal.relevance import PairInstance
from kgcausal.synthetic import MOTIF_NAME_PREFIX, MOTIF_TYPE, SyntheticWorld

_HUB_TYPES = ("Protein", "Anatomy", "Pathway", "BiologicalProcess")
_HUB_RELATIONS = ("binds", "expresses", "participates_in", "interacts_with")
_MOTIF_RELATIONS = ("upregulates", "causes")
UNIVERSAL_HUBS = 2  # hubs every variable links to
HUBS_PER_LEAF = 4
FLIP_RATE = 0.002
BASE_CONFIDENCE = 0.9


@dataclass(frozen=True)
class HubGraphSpec:
    variables: int = 40
    hubs: int = 200
    hubs_per_variable: int = 48
    leaves: int = 4000
    causal_pairs: int = 40


@dataclass
class HubWorld(SyntheticWorld):
    variables: list[str]
    gold_matrix: list[list[int]]


def make_hub_world(spec: HubGraphSpec = HubGraphSpec(), seed: int = 0) -> HubWorld:
    """Graph, every ordered variable pair as an instance, and a gold adjacency."""
    if not UNIVERSAL_HUBS <= spec.hubs_per_variable <= spec.hubs:
        raise ValueError("need hubs_per_variable between UNIVERSAL_HUBS and hubs")
    rng = random.Random(seed)
    nodes: list[NodeRecord] = []
    edges: list[EdgeRecord] = []

    variables = [NodeRecord(id=f"v{i:03d}", name=f"variable v{i:03d}",
                            node_type="Compound" if i % 2 == 0 else "Disease")
                 for i in range(spec.variables)]
    hubs = []
    for i in range(spec.hubs):
        hub_type = _HUB_TYPES[i % len(_HUB_TYPES)]
        hubs.append(NodeRecord(id=f"h{i:04d}", name=f"{hub_type.lower()} h{i:04d}",
                               node_type=hub_type))
    nodes.extend(variables)
    nodes.extend(hubs)

    universal = hubs[:UNIVERSAL_HUBS]
    others = hubs[UNIVERSAL_HUBS:]
    for var in variables:
        chosen = universal + rng.sample(others, spec.hubs_per_variable - len(universal))
        for hub in chosen:
            edges.append(EdgeRecord(head=var.id, relation=rng.choice(_HUB_RELATIONS),
                                    tail=hub.id))

    # Leaf i always joins hubs i and i + 1 (mod hubs), which chains every hub
    # into one component; its other hubs are random.
    for i in range(spec.leaves):
        leaf = NodeRecord(id=f"l{i:05d}", name=f"gene l{i:05d}", node_type="Gene")
        nodes.append(leaf)
        ring = [i % spec.hubs, (i + 1) % spec.hubs]
        rest = rng.sample([h for h in range(spec.hubs) if h not in ring],
                          HUBS_PER_LEAF - 2)
        for h in ring + rest:
            edges.append(EdgeRecord(head=hubs[h].id, relation="associates", tail=leaf.id))

    unordered = [(a, b) for a in range(spec.variables) for b in range(a + 1, spec.variables)]
    planted = sorted(rng.sample(unordered, spec.causal_pairs))
    for k, (a, b) in enumerate(planted):
        motif = NodeRecord(id=f"m{k:04d}", name=f"{MOTIF_NAME_PREFIX} m{k:04d}",
                           node_type=MOTIF_TYPE)
        nodes.append(motif)
        edges.append(EdgeRecord(head=variables[a].id, relation=_MOTIF_RELATIONS[0],
                                tail=motif.id))
        edges.append(EdgeRecord(head=motif.id, relation=_MOTIF_RELATIONS[1],
                                tail=variables[b].id))

    causal = set(planted) | {(b, a) for a, b in planted}
    gold = [[1 if (i, j) in causal else 0 for j in range(spec.variables)]
            for i in range(spec.variables)]
    instances = []
    for i, a in enumerate(variables):
        for j, b in enumerate(variables):
            if i == j:
                continue
            instances.append(PairInstance(
                qid=f"{a.id}-{b.id}", e1=a.name, e2=b.name,
                context=f"{a.name} and {b.name} were measured in the same cohort.",
                groundtruth=CAUSAL if gold[i][j] else NON_CAUSAL))

    mock_config = MockOracleConfig(causal_motifs=((MOTIF_NAME_PREFIX,),),
                                   base_confidence=BASE_CONFIDENCE,
                                   noise_seed=seed, flip_rate=FLIP_RATE)
    return HubWorld(kg=KnowledgeGraph(nodes, edges), instances=instances,
                    mock_config=mock_config, nodes=nodes, edges=edges,
                    variables=[v.name for v in variables], gold_matrix=gold)
