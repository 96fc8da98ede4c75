"""Pinned digests of outputs that depend only on seeds.

Every value below is a pure function of fixed seeds: the per-stage seeds of
``extract``, the mock backend's flip decisions, the ``random`` ranker, the
hashed n-gram features and the template provenance hashes.  A change to any
seeded hash shows up here as a digest mismatch, whereas the rerun tests
elsewhere only compare a run with itself.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from kgcausal.cli import main
from kgcausal.kg import MetapathSubgraph
from kgcausal.ltr.models import RANDOM, RankerModel, ranker_input_tokens, score_subgraphs
from kgcausal.ltr.ngram import hashed_counts
from kgcausal.synthetic import make_planted_world, write_instances_jsonl, write_kg_jsonl

EXTRACT_SHA256 = "2ca0950bd7722a850061ac3561e7e7e080aaec7939edc9059f5bb9b8f0cf5d68"
ESTIMATE_SHA256 = "563d97390f2e915b2422ff6fa0080b62681c29c3301eefb2a06fe1541b697047"
RANDOM_SCORES_SHA256 = "2dc2272d23b5b71ba6e2e4585a0dd06500725d8e469b6127ef991b4989b90211"
HASHED_COUNTS_SHA256 = "cfe23e7da36e5ec7bd3e0e6047dbb0e3438761246007f3a291f0c5332f61ec01"
TEMPLATE_HASHES = {"sre": "f1287c886d372ccf", "discovery": "9a4785a692f07035"}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """extract -> estimate -> eval on a small world with a noisy mock."""
    root = tmp_path_factory.mktemp("golden")
    world = make_planted_world(n_pairs=24, flip_rate=0.2, seed=31)
    write_kg_jsonl(world, root / "kg.jsonl")
    write_instances_jsonl(world.instances, root / "pairs.jsonl")
    (root / "mock.json").write_text(json.dumps(world.mock_config.to_dict()), encoding="utf-8")
    config = {"kg": {"path": str(root / "kg.jsonl")},
              "llm": {"backend": "mock", "mock_config_path": str(root / "mock.json")},
              "sre": {"k_max": 3},
              "seed": 17}
    cfg = root / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    common = ["--config", str(cfg), "--out"]
    assert main(["extract", str(root / "pairs.jsonl"), *common,
                 str(root / "candidates.jsonl")]) == 0
    assert main(["estimate", str(root / "candidates.jsonl"), *common,
                 str(root / "ranked.jsonl")]) == 0
    predictions = root / "predictions.jsonl"
    predictions.write_text("".join(
        json.dumps({"qid": inst.qid, "predicted": inst.groundtruth, "p": 1.0})
        + "\n" for inst in world.instances), encoding="utf-8")
    assert main(["eval", str(predictions), str(root / "pairs.jsonl"), *common,
                 str(root / "report.json")]) == 0
    return root


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
        subgraphs = [MetapathSubgraph.from_dict(d) for d in row["subgraphs"]]
        scores.extend(float(s).hex()
                      for s in score_subgraphs(model, (row["e1"], row["e2"]), subgraphs))
    assert sha256(" ".join(scores).encode("ascii")) == RANDOM_SCORES_SHA256


def test_hashed_counts(artifacts):
    rows = []
    for row in candidate_rows(artifacts):
        for d in row["subgraphs"]:
            tokens = ranker_input_tokens((row["e1"], row["e2"]),
                                         MetapathSubgraph.from_dict(d))
            rows.append(hashed_counts(tokens, n=3, hash_dim=256))
    assert sha256(np.stack(rows).astype("<f8").tobytes()) == HASHED_COUNTS_SHA256


def test_template_hashes(artifacts):
    report = json.loads((artifacts / "report.json").read_text(encoding="utf-8"))
    assert report["template_hashes"] == TEMPLATE_HASHES
