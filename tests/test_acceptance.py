"""Acceptance criteria, one test per criterion.

Each test prints an `ACCEPTANCE <id>: PASS/FAIL` line (visible with -s or in
captured output) and asserts at the stated tolerance.  Everything runs
offline against the deterministic mock backend.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import asdict

import numpy as np
import pytest

from conftest import ranknet_terms, scorer_loss_and_grads
from kgcausal.cli import EXIT_OK, main as cli_main
from kgcausal.discovery import (
    DiscoveryConfig,
    classify_pair,
    evaluate_classification,
    hamming_distance,
    f1_score,
)
from kgcausal.kg import EdgeRecord, KnowledgeGraph, NodeRecord, enumerate_subgraphs
from kgcausal.llm import MockOracle
from kgcausal.ltr.losses import (
    LISTNET,
    RANKNET,
    RMSE,
    loss_and_grad,
)
from kgcausal.ltr.metrics import ndcg_at_k, recall_at_k
from kgcausal.ltr.models import (
    NeuralParams,
    TrainConfig,
    ranker_input_tokens,
    record_pair,
    record_subgraphs,
    score_subgraphs,
    train_gbdt_ranker,
    train_neural_ranker,
)
from kgcausal.ltr.ngram import train_ngram_lm
from kgcausal.relevance import (
    RankedMetapath,
    RankedPairRecord,
    rank_pair,
    read_ranked_dataset,
)
from kgcausal.synthetic import make_planted_world, write_instances_jsonl, write_kg_jsonl
from test_kg import as_key_set, brute_force_shortest_paths


def check(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Metric arithmetic at the published precision/recall operating points
# ---------------------------------------------------------------------------

def test_c1_metric_arithmetic():
    f1_a = f1_score(100.00, 36.84)
    f1_b = f1_score(57.89, 91.67)
    adj = np.zeros((11, 11), dtype=int)
    cells = [(i, j) for i in range(11) for j in range(11) if i != j][:24]
    for i, j in cells:
        adj[i, j] = 1
    _, nhd = hamming_distance(adj, np.zeros((11, 11), dtype=int))
    ok = (abs(f1_a - 53.85) <= 0.01 and abs(f1_b - 70.97) <= 0.01
          and abs(nhd - 0.198) <= 0.001)
    check("1-metric-arithmetic", ok,
          f"F1={f1_a:.4f},{f1_b:.4f} NHD={nhd:.5f}")


# ---------------------------------------------------------------------------
# 2. Analytic gradients through the scorer vs central finite differences
# ---------------------------------------------------------------------------

def test_c2_scorer_gradients_and_pair_count():
    step = 1e-5
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d, h = 6, 4
        k = int(rng.integers(3, 9))
        params = NeuralParams(w1=rng.normal(size=(d, h)), b1=rng.normal(size=h),
                              w2=rng.normal(size=h), b2=float(rng.normal()))
        X = rng.normal(size=(k, d))
        targets = rng.normal(size=k)
        ranks = list(rng.permutation(np.arange(1, k + 1)))
        for loss_kind in (RMSE, RANKNET, LISTNET):
            _, grads = scorer_loss_and_grads(params, X, loss_kind,
                                             targets=targets, ranks=ranks)
            for name in ("w1", "b1", "w2"):
                flat = getattr(params, name).reshape(-1)
                for idx in range(flat.size):
                    original = flat[idx]
                    flat[idx] = original + step
                    hi, _ = scorer_loss_and_grads(params, X, loss_kind,
                                                  targets=targets, ranks=ranks)
                    flat[idx] = original - step
                    lo, _ = scorer_loss_and_grads(params, X, loss_kind,
                                                  targets=targets, ranks=ranks)
                    flat[idx] = original
                    numeric = (hi - lo) / (2 * step)
                    analytic = grads[name].reshape(-1)[idx]
                    rel = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
                    worst = max(worst, rel)
    pair_counts_ok = all(
        len(ranknet_terms(list(np.linspace(0.0, 1.0, k)), list(range(1, k + 1))))
        == k * (k - 1) // 2
        for k in range(2, 11))
    ok = worst < 1e-4 and pair_counts_ok
    check("2-loss-gradients", ok,
          f"worst relative error {worst:.2e}, pair counts ok={pair_counts_ok}")


# ---------------------------------------------------------------------------
# 3. Closed-form loss identities
# ---------------------------------------------------------------------------

def test_c3_loss_identities():
    rng = np.random.default_rng(7)
    x = rng.normal(size=6)
    rmse_zero = loss_and_grad(RMSE, x, targets=x)[0] == 0.0
    ranknet_ln2 = abs(loss_and_grad(RANKNET, [0.4, 0.4], ranks=[1, 2])[0] - math.log(2.0)) <= 1e-9
    listnet_ln_k = all(
        abs(loss_and_grad(LISTNET, [0.7] * k, targets=[1.1] * k)[0] - math.log(k)) <= 1e-9
        for k in range(2, 8))
    scores = list(rng.normal(size=5))
    targets = list(rng.normal(size=5))
    shift = abs(loss_and_grad(LISTNET, [s + 1234.5 for s in scores], targets=targets)[0]
                - loss_and_grad(LISTNET, scores, targets=targets)[0])
    ok = rmse_zero and ranknet_ln2 and listnet_ln_k and shift < 1e-12
    check("3-loss-identities", ok, f"shift residual {shift:.2e}")


# ---------------------------------------------------------------------------
# 4. Shortest-path enumeration equals the brute-force oracle
# ---------------------------------------------------------------------------

def test_c4_enumeration_oracle_equivalence():
    rng = random.Random(99)
    failures = 0
    for trial in range(100):
        n = rng.randint(4, 50)
        nodes = [NodeRecord(id=f"n{i}", name=f"n{i}", node_type="T") for i in range(n)]
        edges = []
        for _ in range(rng.randint(n, int(1.8 * n))):
            u, v = rng.sample(range(n), 2)
            rel = rng.choice(["r1", "r2", "r3"])
            edges.append(EdgeRecord(head=f"n{u}", relation=rel, tail=f"n{v}"))
        kg = KnowledgeGraph(nodes, edges)
        a, b = (f"n{i}" for i in rng.sample(range(n), 2))
        max_hops = rng.randint(1, 4)
        found = as_key_set(enumerate_subgraphs(kg, (a, b), max_hops=max_hops))
        expected = brute_force_shortest_paths(kg, a, b, max_hops)
        if found != expected:
            failures += 1
    check("4-enumeration-oracle", failures == 0, f"{failures}/100 graph mismatches")


# ---------------------------------------------------------------------------
# 5. Ranking metrics equal brute-force definitions on every permutation
# ---------------------------------------------------------------------------

def test_c5_ranking_metric_oracles():
    base_gains = [0.3, 1.7, 0.9, 2.0, 0.1, 1.2]
    mismatches = 0
    for n in range(1, 7):
        gains = base_gains[:n]
        ideal = {k: max(sum(g / math.log2(r + 1) for r, g in enumerate(p[:k], start=1))
                        for p in itertools.permutations(gains))
                 for k in range(1, n + 1)}
        for perm in itertools.permutations(gains):
            for k in range(1, n + 1):
                dcg = sum(g / math.log2(r + 1) for r, g in enumerate(perm[:k], start=1))
                expected = dcg / ideal[k] if ideal[k] > 0 else 1.0
                if ndcg_at_k(list(perm), k) != pytest.approx(expected, abs=1e-12):
                    mismatches += 1
        for relevant_count in range(0, n + 1):
            flags = [True] * relevant_count + [False] * (n - relevant_count)
            for perm in set(itertools.permutations(flags)):
                for k in range(1, n + 1):
                    hits = sum(1 for f in perm[:k] if f)
                    expected = hits / relevant_count if relevant_count else 1.0
                    if recall_at_k(list(perm), k, relevant_count) != expected:
                        mismatches += 1
    check("5-ranking-metric-oracle", mismatches == 0, f"{mismatches} mismatches")


# ---------------------------------------------------------------------------
# 6. Planted-signal end to end
# ---------------------------------------------------------------------------

N_PAIRS = 220
FLIP_RATE = 0.01
TRAIN_FRACTION = 0.7


@pytest.fixture(scope="module")
def planted_pipeline():
    world = make_planted_world(n_pairs=N_PAIRS, flip_rate=FLIP_RATE, seed=17)
    backend = MockOracle(world.mock_config)
    records = []
    candidate_counts = []
    for inst in world.instances:
        subs = enumerate_subgraphs(world.kg, (inst.e1, inst.e2), max_hops=4)
        candidate_counts.append(len(subs))
        records.append(rank_pair(inst, subs, backend))
    corpus = []
    for record in records:
        for sg in record_subgraphs(record):
            corpus.append(ranker_input_tokens(record_pair(record), sg))
    lm = train_ngram_lm(corpus, n=2, d=64, seed=3, epochs=8, min_count=8)
    cut = int(N_PAIRS * TRAIN_FRACTION)
    return world, records, lm, cut, candidate_counts


def _heldout_ndcg1(model, records, lm):
    values = []
    for record in records:
        subs = record_subgraphs(record)
        scores = score_subgraphs(model, record_pair(record), subs, lm)
        order = sorted(range(len(subs)), key=lambda i: (-scores[i], i))
        gains = [record.metapaths[i].relscore for i in order]
        values.append(ndcg_at_k(gains, 1))
    return float(np.mean(values))


def test_c6a_sre_ranks_motif_first(planted_pipeline):
    world, records, _, _, candidate_counts = planted_pipeline
    assert len(records) >= 200
    assert min(candidate_counts) >= 5
    motif_records = [r for r in records
                     if any("stress hormone" in m.stops for m in r.metapaths)]
    first = sum(1 for r in motif_records if "stress hormone" in r.metapaths[0].stops)
    rate = first / len(motif_records)
    check("6a-sre-motif-first", rate >= 0.85,
          f"{first}/{len(motif_records)} = {rate:.3f} (threshold 0.85)")


@pytest.fixture(scope="module")
def trained_rankers(planted_pipeline):
    _, records, lm, cut, _ = planted_pipeline
    train = records[:cut]
    neural_config = TrainConfig(epochs=500, learning_rate=0.3, batch=8, seed=5,
                                lr_decay=0.02)
    gbdt_config = TrainConfig(gbdt_rounds=30, gbdt_max_depth=3,
                              gbdt_learning_rate=0.3, seed=5)
    models = {loss: train_neural_ranker(train, lm, loss, neural_config)
              for loss in (RMSE, RANKNET, LISTNET)}
    models["gbdt"] = train_gbdt_ranker(train, lm, gbdt_config)
    return models


def test_c6b_every_ranker_recovers_ranking(planted_pipeline, trained_rankers):
    _, records, lm, cut, _ = planted_pipeline
    held = records[cut:]
    scores = {name: _heldout_ndcg1(model, held, lm)
              for name, model in trained_rankers.items()}
    ok = all(v >= 0.9 for v in scores.values())
    check("6b-ranker-ndcg", ok,
          " ".join(f"{k}={v:.3f}" for k, v in scores.items()) + " (threshold 0.9)")


def test_c6c_discovery_beats_no_subgraph(planted_pipeline, trained_rankers):
    world, records, lm, cut, _ = planted_pipeline
    backend = MockOracle(world.mock_config)
    held_qids = {r.qid for r in records[cut:]}
    held_instances = [inst for inst in world.instances if inst.qid in held_qids]
    model = trained_rankers[RANKNET]
    config = DiscoveryConfig(k=1, max_hops=4)

    with_paths = [classify_pair(inst, world.kg, model, backend, config=config, lm=lm)
                  for inst in held_instances]
    bare = [classify_pair(inst, world.kg, None, backend, config=config)
            for inst in held_instances]
    augmented = evaluate_classification(with_paths, held_instances)
    baseline = evaluate_classification(bare, held_instances)
    ok = augmented.f1 >= 95.0 and baseline.f1 <= 60.0
    check("6c-discovery-vs-baseline", ok,
          f"augmented F1={augmented.f1:.2f} (>=95), bare F1={baseline.f1:.2f} (<=60)")


# ---------------------------------------------------------------------------
# 7. Byte-identical pipeline reruns
# ---------------------------------------------------------------------------

def _run_pipeline(root, out_dir):
    args = ["--config", str(root / "config.json")]
    steps = [
        ("extract", [str(root / "pairs.jsonl")], "candidates.jsonl"),
        ("estimate", [str(out_dir / "candidates.jsonl")], "ranked.jsonl"),
        ("train", [str(out_dir / "ranked.jsonl")], "model.json"),
        ("rank", [str(out_dir / "model.json"), str(out_dir / "ranked.jsonl")],
         "rankings.jsonl"),
        ("discover", [str(out_dir / "model.json"), str(root / "pairs.jsonl")],
         "predictions.jsonl"),
    ]
    for command, inputs, out_name in steps:
        code = cli_main([command, *inputs, *args, "--out", str(out_dir / out_name)])
        assert code == EXIT_OK, f"{command} exited {code}"
    code = cli_main(["eval", str(out_dir / "predictions.jsonl"),
                     str(root / "pairs.jsonl"),
                     "--rankings", str(out_dir / "rankings.jsonl"),
                     *args, "--out", str(out_dir / "report.json")])
    assert code == EXIT_OK
    return ["candidates.jsonl", "ranked.jsonl", "model.json", "rankings.jsonl",
            "predictions.jsonl", "report.json"]


@pytest.fixture(scope="module")
def cli_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    world = make_planted_world(n_pairs=30, flip_rate=0.02, seed=23)
    write_kg_jsonl(world, root / "kg.jsonl")
    write_instances_jsonl(world.instances, root / "pairs.jsonl")
    (root / "mock.json").write_text(json.dumps(asdict(world.mock_config)), encoding="utf-8")
    config = {
        "kg": {"path": str(root / "kg.jsonl")},
        "llm": {"backend": "mock", "mock_config_path": str(root / "mock.json")},
        "ranker": {"kind": "gbdt", "gbdt": {"rounds": 10, "depth": 3, "lr": 0.3},
                   "ngram": {"n": 2, "d": 32, "epochs": 3, "lr": 0.5}},
        "seed": 4242,
    }
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return root


def test_c7_pipeline_determinism(cli_world, tmp_path):
    one = tmp_path / "run1"
    two = tmp_path / "run2"
    one.mkdir()
    two.mkdir()
    artifacts = _run_pipeline(cli_world, one)
    _run_pipeline(cli_world, two)
    differing = [name for name in artifacts
                 if (one / name).read_bytes() != (two / name).read_bytes()]
    check("7-determinism", not differing, f"differing artifacts: {differing or 'none'}")


# ---------------------------------------------------------------------------
# 8. Ranked-dataset format fidelity
# ---------------------------------------------------------------------------

def test_c8_format_fidelity(cli_world, tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    from test_cli import RANKED_SCHEMA

    out_dir = tmp_path / "run"
    out_dir.mkdir()
    _run_pipeline(cli_world, out_dir)
    ranked_path = out_dir / "ranked.jsonl"
    original = ranked_path.read_text(encoding="utf-8")
    rows = [json.loads(line) for line in original.splitlines()]
    for row in rows:
        jsonschema.validate(row, RANKED_SCHEMA)
        for mp in row["metapaths"]:
            assert list(mp.keys()) == ["pathid", "relscore", "probscore", "relevant",
                                       "stops", "reltypes", "nodelabels"]
    records = read_ranked_dataset(ranked_path)
    re_emitted = "".join(json.dumps(r.to_dict(), ensure_ascii=False) + "\n" for r in records)
    check("8-format-fidelity", re_emitted == original,
          f"{len(rows)} records validated, round-trip lossless")


# ---------------------------------------------------------------------------
# 9. GBDT training error never increases
# ---------------------------------------------------------------------------

def _random_relevance_records(n_records, seed):
    rng = np.random.default_rng(seed)
    records = []
    for q in range(n_records):
        k = int(rng.integers(2, 7))
        scores = np.sort(rng.uniform(0, 2, size=k))[::-1]
        metapaths = tuple(
            RankedMetapath(pathid=i + 1, relscore=float(scores[i]), probscore=-0.2,
                           relevant="1" if scores[i] > 1 else "0",
                           stops=f"a{q} - mid{q}_{i} - b{q}", reltypes="r - r",
                           nodelabels="T - T - T")
            for i in range(k))
        records.append(RankedPairRecord(qid=f"r{q}", e1=f"a{q}", e2=f"b{q}",
                                        groundtruth="1", metapaths=metapaths))
    return records


def test_c9_gbdt_monotone_training_error(planted_pipeline):
    _, records, lm, cut, _ = planted_pipeline
    datasets = {
        "planted": records[:60],
        "random": _random_relevance_records(40, seed=31),
    }
    violations = []
    for name, dataset in datasets.items():
        for depth in (0, 2, 3):
            config = TrainConfig(gbdt_rounds=25, gbdt_max_depth=depth,
                                 gbdt_learning_rate=0.3, seed=1)
            model = train_gbdt_ranker(dataset, lm, config)
            history = model.train_rmse_history
            if any(later > earlier + 1e-12
                   for earlier, later in zip(history, history[1:])):
                violations.append(f"{name}/depth{depth}")
    check("9-gbdt-monotone", not violations, f"violations: {violations or 'none'}")
