"""Pinned digests of outputs that depend only on seeds.

Every value below is a pure function of fixed seeds: the per-stage seeds of
``extract``, the mock backend's flip decisions, the ``random`` ranker, the
hashed n-gram features, the template provenance hashes and the paths that
``enumerate_subgraphs`` returns, in order.  A change to any seeded hash, or
to the path search, shows up here as a digest mismatch, whereas the rerun
tests elsewhere only compare a run with itself.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import numpy as np

from kgcausal.kg import (
    EdgeRecord,
    KnowledgeGraph,
    MetapathSubgraph,
    NodeRecord,
    enumerate_subgraphs,
)
from kgcausal.ltr.models import RANDOM, RankerModel, ranker_input_tokens, score_subgraphs
from kgcausal.ltr.ngram import hashed_slots
from kgcausal.synthetic import make_planted_world
from kgcausal.util import read_fields

EXTRACT_SHA256 = "2ca0950bd7722a850061ac3561e7e7e080aaec7939edc9059f5bb9b8f0cf5d68"
ESTIMATE_SHA256 = "563d97390f2e915b2422ff6fa0080b62681c29c3301eefb2a06fe1541b697047"
RANDOM_SCORES_SHA256 = "2dc2272d23b5b71ba6e2e4585a0dd06500725d8e469b6127ef991b4989b90211"
HASHED_COUNTS_SHA256 = "cfe23e7da36e5ec7bd3e0e6047dbb0e3438761246007f3a291f0c5332f61ec01"
TEMPLATE_HASHES = {"sre": "f1287c886d372ccf", "discovery": "9a4785a692f07035"}
PLANTED_PATHS_SHA256 = "619b5a4be13e2fec8c0c81489d1d517ac82b952e1cf9512e6e35fe33842c0fa8"
MULTIGRAPH_PATHS_SHA256 = "973397d537cf070f35a82469e45bb87976f0ae5ea32faecc3d106b0c257d1785"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def candidate_rows(root):
    return [json.loads(line) for line in
            (root / "candidates.jsonl").read_text(encoding="utf-8").splitlines()]


def test_extract_candidates(artifacts):
    assert sha256((artifacts / "candidates.jsonl").read_bytes()) == EXTRACT_SHA256


def test_estimate_ranked_dataset(artifacts):
    assert sha256((artifacts / "ranked.jsonl").read_bytes()) == ESTIMATE_SHA256


def test_random_ranker_scores(artifacts):
    model = RankerModel(kind=RANDOM, seed=23)
    scores = []
    for row in candidate_rows(artifacts):
        subgraphs = [read_fields(MetapathSubgraph, d) for d in row["subgraphs"]]
        scores.extend(float(s).hex()
                      for s in score_subgraphs(model, (row["e1"], row["e2"]), subgraphs))
    assert sha256(" ".join(scores).encode("ascii")) == RANDOM_SCORES_SHA256


def test_hashed_counts(artifacts):
    rows = []
    for row in candidate_rows(artifacts):
        for d in row["subgraphs"]:
            tokens = ranker_input_tokens((row["e1"], row["e2"]),
                                         read_fields(MetapathSubgraph, d))
            slots = hashed_slots(tokens, n=3, hash_dim=256)
            rows.append(np.bincount(slots, minlength=256).astype(np.float64))
    assert sha256(np.stack(rows).astype("<f8").tobytes()) == HASHED_COUNTS_SHA256


def test_template_hashes(artifacts):
    report = json.loads((artifacts / "report.json").read_text(encoding="utf-8"))
    assert report["template_hashes"] == TEMPLATE_HASHES


def paths_digest(queries) -> str:
    """One line per ``(kg, pair, max_hops, limit, seed)`` query: the pair and
    every returned subgraph, in the order returned.  Each subgraph, built
    without the constructor's checks, must equal the checked construction of
    its five tuples."""
    h = hashlib.sha256()
    for kg, pair, max_hops, limit, seed in queries:
        found = enumerate_subgraphs(kg, pair, max_hops=max_hops, limit=limit, seed=seed)
        rows = [sg.to_dict() for sg in found]
        assert found == [MetapathSubgraph(**row) for row in rows]
        h.update(json.dumps([pair, rows]).encode("utf-8") + b"\n")
    return h.hexdigest()


def seeded_multigraph(rng: random.Random) -> KnowledgeGraph:
    """Ids whose string order differs from their numbering (``n10`` sorts
    before ``n2``), names shared by two ids up to case, relations whose
    string order differs from their numbering, and parallel edges both ways."""
    n = rng.randint(5, 24)
    nodes = []
    for i in range(n):
        name = f"v{rng.randrange(i)}" if i and rng.random() < 0.25 else f"v{i}"
        if rng.random() < 0.3:
            name = name.upper()
        nodes.append(NodeRecord(id=f"n{i}", name=name, node_type=rng.choice(("A", "B", "C"))))
    edges = []
    for _ in range(rng.randint(n, 3 * n)):
        u, v = rng.sample(range(n), 2)
        for _ in range(rng.choice((1, 1, 2, 3))):
            head, tail = (u, v) if rng.random() < 0.6 else (v, u)
            edges.append(EdgeRecord(head=f"n{head}", relation=rng.choice(("r1", "r2", "r10")),
                                    tail=f"n{tail}"))
    rng.shuffle(edges)
    return KnowledgeGraph(nodes, edges)


def test_planted_world_paths():
    world = make_planted_world(seed=3)
    variables = sorted({inst.e1 for inst in world.instances}
                       | {inst.e2 for inst in world.instances})
    queries = ((world.kg, pair, 4, None, 0) for pair in itertools.permutations(variables, 2))
    assert paths_digest(queries) == PLANTED_PATHS_SHA256


def test_random_multigraph_paths():
    rng = random.Random(5)

    def queries():
        for _ in range(60):
            kg = seeded_multigraph(rng)
            names = sorted({node.name.lower() for node in kg.nodes.values()})
            for pair in itertools.permutations(names, 2):
                yield (kg, pair, rng.randint(1, 6), rng.choice((None, 1, 2, 5)),
                       rng.randrange(100))

    assert paths_digest(queries()) == MULTIGRAPH_PATHS_SHA256
