"""The three benchmark workloads, run in a fresh process by ``run.py``.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1

Prints one JSON object on stdout: end-to-end metrics, per-layer metrics
(traced runs only), operation counts, output checks, an output digest and
the environment.  ``run.py`` pins BLAS threads before starting this
process, so numpy is never imported here with a different setting.

Why these workloads:

* ``planted-train`` is the training-heavy library path (the acceptance-c6
  configuration on the 220-pair planted world): LM plus four rankers are
  nearly all of it, graph and backend work is small.
* ``hub-graph`` is the graph and inference path: every ordered pair of 40
  variables in one large hub-heavy component, so each enumeration walks the
  whole graph, and every variable recurs in 78 pairs.  No training in the
  measured run.
* ``cli-http`` is the six-command CLI against a loopback HTTP endpoint with
  a fixed per-request delay: file I/O, the HTTP client and waiting on the
  backend, which the library workloads never reach.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import kgcausal  # noqa: E402
from kgcausal.cli import main as cli_main  # noqa: E402
from kgcausal.discovery import (  # noqa: E402
    DiscoveryConfig,
    aggregate_graph,
    classify_pair,
    evaluate_classification,
    hamming_distance,
)
from kgcausal.kg import enumerate_subgraphs, load_kg  # noqa: E402
from kgcausal.llm import CAUSAL, MockOracle  # noqa: E402
from kgcausal.ltr.losses import LISTNET, RANKNET, RMSE  # noqa: E402
from kgcausal.ltr.metrics import ndcg_at_k  # noqa: E402
from kgcausal.ltr.models import (  # noqa: E402
    TrainConfig,
    ranker_input_tokens,
    record_pair,
    record_subgraphs,
    score_subgraphs,
    train_gbdt_ranker,
    train_neural_ranker,
)
from kgcausal.ltr.ngram import train_ngram_lm  # noqa: E402
from kgcausal.relevance import candidate_subgraphs, rank_pair  # noqa: E402
from kgcausal.synthetic import (  # noqa: E402
    make_planted_world,
    write_instances_jsonl,
    write_kg_jsonl,
)

from hubgraph import make_hub_world  # noqa: E402
from loopback import LoopbackServer  # noqa: E402
from speed import REFERENCE_PROBE_S, SpeedMeter  # noqa: E402
from tracing import CountingBackend, Tracer, percentile_ms, timing_metrics  # noqa: E402

WORKLOADS = ("planted-train", "hub-graph", "cli-http")
# Set up at least SETUP_REPEATS times and for at least SETUP_MIN_S, so that
# the median of a set-up of a few tens of milliseconds is still steady.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
WORK_DIR = Path(".bench_work")
TRACE_DIR = Path(".bench_out")

# Quality floors checked on every run, per workload: the lowest accepted
# held-out NDCG@1 of each ranker and F1 (%).  planted-train keeps the
# acceptance-c6 floors (NDCG@1 >= 0.9, F1 >= 95) except for the pointwise
# rmse ranker, whose held-out NDCG@1 (steps of about 0.015) fell below 0.9 on
# 3 of about 100 planted worlds, to 0.885 at the lowest.  Its floor of 0.85
# sits between that and the 0.63 of a random order, so it catches broken
# training, not seed-to-seed variation.  The rankers of hub-graph and
# cli-http, trained on few records, miss the motif on up to a twentieth of
# the causal pairs on some seeds; their floors are set the same way.
FLOORS = {
    "planted-train": {"ndcg1.rmse": 0.85, "ndcg1.ranknet": 0.9, "ndcg1.listnet": 0.9,
                      "ndcg1.gbdt": 0.9, "f1": 95.0},
    "hub-graph": {"ndcg1.gbdt": 0.85, "f1": 85.0},
    "cli-http": {"ndcg1.gbdt": 0.85, "f1": 90.0},
}

# acceptance-c6 configuration
PLANTED_PAIRS = 220
PLANTED_FLIP_RATE = 0.01
TRAIN_FRACTION = 0.7
LM_ARGS = {"n": 2, "d": 64, "seed": 3, "epochs": 8, "min_count": 8}
NEURAL_CONFIG = TrainConfig(epochs=500, learning_rate=0.3, batch=8, seed=5, lr_decay=0.02)
GBDT_CONFIG = TrainConfig(gbdt_rounds=30, gbdt_max_depth=3, gbdt_learning_rate=0.3, seed=5)

# hub-graph set-up: a stratified subset of pairs is estimated to train a
# GBDT ranker (GBDT_CONFIG); the measured run classifies every ordered pair.
# Hub paths are relevant on non-causal pairs and irrelevant on causal ones,
# so a pointwise ranker first spends rounds on endpoint tokens: at 12 rounds
# it still tied the motif with hub paths on some seeds (F1 74.6 on one).
HUB_TRAIN_CAUSAL = 40
HUB_TRAIN_NON_CAUSAL = 40
# Held-out NDCG@1 is also measured on this many more pairs of each class,
# estimated after training: the 24 held-out records of the 80 above moved it
# in steps of about 0.04, so one seed's ranker read 0.842 at F1 94.8.
HUB_EXTRA_HELD_OUT = 40
HUB_DISCOVERY = DiscoveryConfig(k=1, max_hops=4, candidate_limit=64, seed=11)

# cli-http
CLI_PAIRS = 200
CLI_DELAY_S = 0.010
CLI_CONFIG = {
    "kg": {"max_hops": 4, "candidate_limit": 64},
    "llm": {"backend": "http", "model": "loopback-mock", "parallelism": 2,
            "max_retries": 0},
    "sre": {"k_max": 10},
    "ranker": {"kind": "gbdt", "gbdt": {"rounds": 10, "depth": 3, "lr": 0.3},
               "ngram": {"n": 2, "d": 32, "epochs": 3, "lr": 0.5}},
    "discovery": {"k": 1},
    "eval": {"ks": [1]},
}


@dataclass
class PassResult:
    pairs: int
    completions: int = 0
    predictions: int = 0
    commands: int = 0
    errors: int = 0  # backend errors, unparseable answers, non-zero exits
    quality: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)  # (name, ok, detail)
    digest: str = ""
    layer: dict = field(default_factory=dict)  # per-layer counts known outside spans


def _check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append((name, bool(ok), detail))


def _quality_checks(checks: list, workload: str, quality: dict) -> None:
    for name, floor in FLOORS[workload].items():
        _check(checks, f"{name} floor", quality[name] >= floor,
               f"{quality[name]:.4f} (floor {floor})")


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(json.dumps(part, sort_keys=True, ensure_ascii=False).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _heldout_ndcg1(model, records, lm, tracer: Tracer) -> tuple[float, list]:
    values, scores_out = [], []
    for record in records:
        subs = record_subgraphs(record)
        scores = tracer.call("models.score_subgraphs", score_subgraphs, model,
                             record_pair(record), subs, lm, pair=record.qid)
        order = sorted(range(len(subs)), key=lambda i: (-scores[i], i))
        values.append(ndcg_at_k([record.metapaths[i].relscore for i in order], 1))
        scores_out.append([float(s) for s in scores])
    return float(np.mean(values)), scores_out


def _lm_corpus(records) -> list:
    corpus = []
    for record in records:
        for sg in record_subgraphs(record):
            corpus.append(ranker_input_tokens(record_pair(record), sg))
    return corpus


def _windows(corpus, n: int) -> int:
    return sum(max(0, len(seq) - n + 1) for seq in corpus)


# ---------------------------------------------------------------------------
# planted-train
# ---------------------------------------------------------------------------

def planted_setup(seed: int, work: Path, phases: dict) -> dict:
    t0 = time.perf_counter()
    world = make_planted_world(n_pairs=PLANTED_PAIRS, flip_rate=PLANTED_FLIP_RATE, seed=seed)
    kg_path = write_kg_jsonl(world, work / "kg.jsonl")
    phases["world"] = time.perf_counter() - t0
    return {"world": world, "kg_path": kg_path}


def planted_pass(state: dict, tracer: Tracer) -> PassResult:
    world = state["world"]
    instances = world.instances
    backend = CountingBackend(MockOracle(world.mock_config), tracer)
    res = PassResult(pairs=len(instances))

    kg = tracer.call("kg.load_kg", load_kg, state["kg_path"])
    with tracer.span("stage.enumerate"):
        candidates = [tracer.call("kg.enumerate_subgraphs", enumerate_subgraphs, kg,
                                  (inst.e1, inst.e2), max_hops=4, pair=inst.qid)
                      for inst in instances]
    with tracer.span("stage.estimate"):
        records = [tracer.call("relevance.rank_pair", rank_pair, inst, subs, backend,
                               pair=inst.qid)
                   for inst, subs in zip(instances, candidates)]
    estimate_calls = backend.completions
    with tracer.span("models.ranker_input_tokens"):
        corpus = _lm_corpus(records)
    lm = tracer.call("ngram.train_ngram_lm", train_ngram_lm, corpus, **LM_ARGS)

    cut = int(len(records) * TRAIN_FRACTION)
    train, held = records[:cut], records[cut:]
    models = {}
    for loss in (RMSE, RANKNET, LISTNET):
        models[loss] = tracer.call(f"models.train_neural_ranker.{loss}", train_neural_ranker,
                                   train, lm, loss, NEURAL_CONFIG)
    models["gbdt"] = tracer.call("models.train_gbdt_ranker", train_gbdt_ranker,
                                 train, lm, GBDT_CONFIG)
    held_scores = {}
    with tracer.span("stage.score"):
        for name, model in models.items():
            res.quality[f"ndcg1.{name}"], held_scores[name] = _heldout_ndcg1(
                model, held, lm, tracer)

    config = DiscoveryConfig(k=1, max_hops=4)
    with tracer.span("stage.discover"):
        predictions = [tracer.call("discovery.classify_pair", classify_pair, inst, kg,
                                   models[RANKNET], backend, config=config, lm=lm,
                                   pair=inst.qid)
                       for inst in instances]
    with tracer.span("discovery.evaluate"):
        metrics = evaluate_classification(predictions, instances)
    res.quality["f1"] = metrics.f1

    res.completions = backend.completions
    res.predictions = len(predictions)
    res.errors = backend.errors + backend.unparseable
    res.layer = {"kg.paths_returned": sum(len(c) for c in candidates),
                 "ngram.windows": _windows(corpus, LM_ARGS["n"]) * LM_ARGS["epochs"],
                 "models.record_epochs": 3 * len(train) * NEURAL_CONFIG.epochs,
                 "llm.unparseable": backend.unparseable}

    expected_estimate = sum(len(c) for c in candidates)
    checks = res.checks
    _check(checks, "every pair has candidates", min(len(c) for c in candidates) > 0)
    _check(checks, "estimate completions", estimate_calls == expected_estimate,
           f"{estimate_calls} made, {expected_estimate} expected")
    _check(checks, "discover completions",
           backend.completions - estimate_calls == len(instances),
           f"{backend.completions - estimate_calls} made, {len(instances)} expected")
    _quality_checks(checks, "planted-train", res.quality)
    res.digest = _digest([r.to_dict() for r in records], held_scores,
                         [p.to_dict() for p in predictions])
    return res


# ---------------------------------------------------------------------------
# hub-graph
# ---------------------------------------------------------------------------

def hub_setup(seed: int, work: Path, phases: dict) -> dict:
    t0 = time.perf_counter()
    world = make_hub_world(seed=seed)
    kg_path = write_kg_jsonl(world, work / "kg.jsonl")
    t1 = time.perf_counter()
    phases["world"] = t1 - t0

    rng = random.Random(seed)
    causal = [inst for inst in world.instances if inst.groundtruth == CAUSAL]
    other = [inst for inst in world.instances if inst.groundtruth != CAUSAL]
    subset = rng.sample(causal, HUB_TRAIN_CAUSAL) + rng.sample(other, HUB_TRAIN_NON_CAUSAL)
    rng.shuffle(subset)
    backend = MockOracle(world.mock_config)

    def estimate(instances):
        return [rank_pair(inst, candidate_subgraphs(inst, world.kg, max_hops=4,
                                                    candidate_limit=64, k_max=10, seed=seed),
                          backend)
                for inst in instances]

    records = estimate(subset)
    corpus = _lm_corpus(records)
    lm = train_ngram_lm(corpus, **LM_ARGS)
    cut = int(len(records) * TRAIN_FRACTION)
    model = train_gbdt_ranker(records[:cut], lm, GBDT_CONFIG)
    used = {inst.qid for inst in subset}
    extra = [rng.sample([inst for inst in group if inst.qid not in used], HUB_EXTRA_HELD_OUT)
             for group in (causal, other)]
    held = records[cut:] + estimate(extra[0] + extra[1])
    ndcg1, _ = _heldout_ndcg1(model, held, lm, Tracer(False))
    phases["train"] = time.perf_counter() - t1
    return {"world": world, "kg_path": kg_path, "lm": lm, "model": model, "ndcg1": ndcg1}


def hub_pass(state: dict, tracer: Tracer) -> PassResult:
    world = state["world"]
    instances = world.instances
    backend = CountingBackend(MockOracle(world.mock_config), tracer)
    res = PassResult(pairs=len(instances))
    config = HUB_DISCOVERY

    kg = tracer.call("kg.load_kg", load_kg, state["kg_path"])
    with tracer.span("stage.enumerate"):
        candidates = [tracer.call("kg.enumerate_subgraphs", enumerate_subgraphs, kg,
                                  (inst.e1, inst.e2), max_hops=config.max_hops,
                                  limit=config.candidate_limit, seed=config.seed,
                                  pair=inst.qid)
                      for inst in instances]
    with tracer.span("stage.discover"):
        predictions = [tracer.call("discovery.classify_pair", classify_pair, inst, kg,
                                   state["model"], backend, config=config, lm=state["lm"],
                                   candidates=subs, pair=inst.qid)
                       for inst, subs in zip(instances, candidates)]
    with tracer.span("discovery.evaluate"):
        metrics = evaluate_classification(predictions, instances)
        by_qid = {inst.qid: inst for inst in instances}
        labels = {(by_qid[p.qid].e1, by_qid[p.qid].e2): p.predicted for p in predictions}
        adjacency = aggregate_graph(labels, world.variables)
        hd, nhd = hamming_distance(adjacency, np.asarray(world.gold_matrix))

    res.quality.update({"f1": metrics.f1, "nhd": nhd, "ndcg1.gbdt": state["ndcg1"]})
    res.completions = backend.completions
    res.predictions = len(predictions)
    res.errors = backend.errors + backend.unparseable
    res.layer = {"kg.paths_returned": sum(len(c) for c in candidates),
                 "llm.unparseable": backend.unparseable}

    checks = res.checks
    fewest = min(len(c) for c in candidates)
    _check(checks, ">= 2 shortest paths per pair", fewest >= 2, f"fewest {fewest}")
    _check(checks, "discover completions", backend.completions == len(instances),
           f"{backend.completions} made, {len(instances)} expected")
    _check(checks, "hamming = fp + fn", hd == metrics.fp + metrics.fn,
           f"hd {hd}, fp+fn {metrics.fp + metrics.fn}")
    _quality_checks(checks, "hub-graph", res.quality)
    res.digest = _digest([p.to_dict() for p in predictions], adjacency.tolist())
    return res


# ---------------------------------------------------------------------------
# cli-http
# ---------------------------------------------------------------------------

def cli_setup(seed: int, work: Path, phases: dict) -> dict:
    t0 = time.perf_counter()
    world = make_planted_world(n_pairs=CLI_PAIRS, flip_rate=PLANTED_FLIP_RATE, seed=seed)
    write_kg_jsonl(world, work / "kg.jsonl")
    write_instances_jsonl(world.instances, work / "pairs.jsonl")
    t1 = time.perf_counter()
    phases["world"] = t1 - t0
    server = LoopbackServer(world.mock_config, delay_s=CLI_DELAY_S).start()
    config = json.loads(json.dumps(CLI_CONFIG))
    config["kg"]["path"] = str(work / "kg.jsonl")
    config["llm"]["endpoint"] = server.endpoint
    config["seed"] = seed
    (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
    phases["server"] = time.perf_counter() - t1
    return {"world": world, "server": server, "work": work}


def cli_teardown(state: dict) -> None:
    state["server"].stop()


def _split_ranked(work: Path) -> None:
    lines = (work / "ranked.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    cut = int(len(lines) * TRAIN_FRACTION)
    (work / "ranked_train.jsonl").write_text("".join(lines[:cut]), encoding="utf-8")
    (work / "ranked_heldout.jsonl").write_text("".join(lines[cut:]), encoding="utf-8")


def cli_pass(state: dict, tracer: Tracer) -> PassResult:
    work: Path = state["work"]
    server: LoopbackServer = state["server"]
    res = PassResult(pairs=len(state["world"].instances))
    cfg = ["--config", str(work / "config.json")]
    steps = [
        ("extract", [str(work / "pairs.jsonl")], "candidates.jsonl"),
        ("estimate", [str(work / "candidates.jsonl")], "ranked.jsonl"),
        ("train", [str(work / "ranked_train.jsonl")], "model.json"),
        ("rank", [str(work / "model.json"), str(work / "ranked_heldout.jsonl")],
         "rankings.jsonl"),
        ("discover", [str(work / "model.json"), str(work / "pairs.jsonl")],
         "predictions.jsonl"),
        ("eval", [str(work / "predictions.jsonl"), str(work / "pairs.jsonl"),
                  "--rankings", str(work / "rankings.jsonl")], "report.json"),
    ]
    requests_by_step = {}
    exits = {}
    for command, inputs, out_name in steps:
        if command == "train":
            _split_ranked(work)
        before = server.stats.requests
        exits[command] = tracer.call(f"cli.{command}", cli_main,
                                     [command, *inputs, *cfg, "--out", str(work / out_name)])
        requests_by_step[command] = server.stats.requests - before

    res.commands = len(steps)
    nonzero = sum(1 for code in exits.values() if code != 0)
    rows = [json.loads(line) for line in
            (work / "candidates.jsonl").read_text(encoding="utf-8").splitlines()]
    predictions = [json.loads(line) for line in
                   (work / "predictions.jsonl").read_text(encoding="utf-8").splitlines()]
    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    unparseable = sum(1 for p in predictions if p["predicted"] is None)
    res.completions = requests_by_step["estimate"] + requests_by_step["discover"]
    res.predictions = len(predictions)
    res.errors = nonzero + unparseable
    res.quality = {"f1": report["classification"]["f1"],
                   "ndcg1.gbdt": report["ranking"]["ndcg@1"]}
    res.layer = {"cli.nonzero_exits": nonzero}

    k_max = CLI_CONFIG["sre"]["k_max"]
    expected_estimate = sum(min(k_max, len(r["subgraphs"])) for r in rows)
    checks = res.checks
    _check(checks, "every command exits 0", nonzero == 0, json.dumps(exits))
    _check(checks, "estimate requests", requests_by_step["estimate"] == expected_estimate,
           f"{requests_by_step['estimate']} served, {expected_estimate} expected")
    _check(checks, "discover requests", requests_by_step["discover"] == len(rows),
           f"{requests_by_step['discover']} served, {len(rows)} expected")
    _check(checks, "one prediction per pair", len(predictions) == res.pairs)
    _quality_checks(checks, "cli-http", res.quality)
    # The report echoes the config, whose endpoint port differs per run.
    artifacts = [(work / name).read_bytes().hex() for name in
                 ("candidates.jsonl", "ranked.jsonl", "model.json", "rankings.jsonl",
                  "predictions.jsonl")]
    res.digest = _digest(artifacts, {k: v for k, v in report.items() if k != "config"})
    return res


@dataclass(frozen=True)
class Workload:
    setup: object
    run_pass: object
    teardown: object = None


REGISTRY = {
    "planted-train": Workload(planted_setup, planted_pass),
    "hub-graph": Workload(hub_setup, hub_pass),
    "cli-http": Workload(cli_setup, cli_pass, cli_teardown),
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer, res: PassResult, wall: float, phases: dict,
                  server_window: dict | None) -> dict:
    out = {}
    out["kg.load_kg.s"] = sum(tracer.durations("kg.load_kg"))
    out.update(timing_metrics(tracer, "kg.enumerate_subgraphs", "kg.enumerate_subgraphs",
                              latency=True))
    out["kg.paths_returned"] = res.layer.get("kg.paths_returned", 0)
    out.update(timing_metrics(tracer, "relevance.rank_pair", "relevance.rank_pair"))
    out.update(timing_metrics(tracer, "llm.complete", "llm.complete", latency=True))
    out["llm.unparseable"] = res.layer.get("llm.unparseable", 0)

    service = server_window["service_s"] if server_window else []
    out["llm.http.requests"] = len(service)
    out["llm.http.wait_s"] = sum(service)
    out["llm.http.max_inflight"] = server_window["max_inflight"] if server_window else 0
    out["llm.http.mean_inflight"] = server_window["area"] / wall if server_window else 0.0
    out["llm.http.service_ms.p50"] = percentile_ms(service, 50)
    out["llm.http.service_ms.p99"] = percentile_ms(service, 99)

    out["ngram.train_ngram_lm.s"] = sum(tracer.durations("ngram.train_ngram_lm"))
    out["ngram.windows"] = res.layer.get("ngram.windows", 0)
    for loss in (RMSE, RANKNET, LISTNET):
        name = f"models.train_neural_ranker.{loss}"
        out[f"{name}.s"] = sum(tracer.durations(name))
    out["models.train_gbdt_ranker.s"] = sum(tracer.durations("models.train_gbdt_ranker"))
    out["models.record_epochs"] = res.layer.get("models.record_epochs", 0)
    out["models.ranker_input_tokens.s"] = sum(tracer.durations("models.ranker_input_tokens"))
    out.update(timing_metrics(tracer, "models.score_subgraphs", "models.score_subgraphs"))
    out.update(timing_metrics(tracer, "discovery.classify_pair", "discovery.classify_pair",
                              latency=True))
    out["discovery.evaluate.s"] = sum(tracer.durations("discovery.evaluate"))
    for command in ("extract", "estimate", "train", "rank", "discover", "eval"):
        out[f"cli.{command}.s"] = sum(tracer.durations(f"cli.{command}"))
    out["cli.nonzero_exits"] = res.layer.get("cli.nonzero_exits", 0)
    for phase in ("world", "train", "server"):
        out[f"setup.{phase}.s"] = phases.get(phase, 0.0)
    return out


def traced_metrics(traced: "Pass", phases: dict) -> dict:
    """Every per-layer metric of a traced pass."""
    tracer, window = traced.tracer, traced.window
    out = layer_metrics(tracer, traced.result, window[1] - window[0], phases, traced.server)
    out.update(coverage_metrics(tracer, window))
    out["trace.pairs_per_s"] = traced.result.pairs / traced.wall
    return out


def coverage_metrics(tracer: Tracer, window: tuple[float, float]) -> dict:
    """Share of the pass wall time that top-level spans cover; the rest is
    reported as uncovered seconds, not folded into any layer."""
    wall = window[1] - window[0]
    covered = sum(end - start for _, start, end, _, _ in tracer.top_level(window))
    return {"trace.wall_s": wall, "trace.covered_frac": covered / wall,
            "trace.uncovered_s": wall - covered}


# ---------------------------------------------------------------------------
# environment and entry point
# ---------------------------------------------------------------------------

def code_digest() -> str:
    """Digest of the program and of the benchmark, whose code makes the inputs."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout, or None where it is no git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "code_digest": code_digest(),
    }


@dataclass
class Pass:
    wall: float  # pass wall time, without speed probes
    reference: float | None  # the same with CPU time rescaled (untraced passes)
    result: PassResult
    tracer: Tracer
    window: tuple[float, float]
    server: dict | None  # server counters over this pass (cli-http)


def _server_window(before: dict, after: dict) -> dict:
    return {"service_s": after["service_s"][len(before["service_s"]):],
            "max_inflight": after["max_inflight"], "area": after["area"] - before["area"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up repeatedly (see SETUP_REPEATS), then run whole passes until
    ``seconds`` would be exceeded (at least one).  Set-ups and untraced passes
    are timed with a SpeedMeter; only the first pass is traced."""
    spec = REGISTRY[workload]
    work = WORK_DIR / f"{workload}-s{seed}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    setup_times, phase_runs, passes, probes = [], [], [], []
    try:
        state, setup_wall = None, 0.0
        while len(setup_times) < SETUP_REPEATS or setup_wall < SETUP_MIN_S:
            if state is not None and spec.teardown:
                spec.teardown(state)
            state = None  # one set-up alive at a time, for peak_rss_mb
            phases: dict = {}
            with SpeedMeter() as meter:
                state = spec.setup(seed, work, phases)
            setup_times.append(meter.reference_s)
            setup_wall += meter.wall_s
            phase_runs.append(phases)
        try:
            start = time.perf_counter()
            while True:
                # Untraced passes are metered, traced ones are not, so probes
                # never show up inside spans.
                meter = None if trace else SpeedMeter()
                tracer = Tracer(trace and not passes)
                server = state.get("server")
                before = server.stats.snapshot() if server else None
                t0 = time.perf_counter()
                with meter or contextlib.nullcontext():
                    res = spec.run_pass(state, tracer)
                t1 = time.perf_counter()
                window = _server_window(before, server.stats.snapshot()) if server else None
                passes.append(Pass(meter.wall_s if meter else t1 - t0,
                                   meter.reference_s if meter else None,
                                   res, tracer, (t0, t1), window))
                probes += meter.probes if meter else []
                if (t1 - start) + (t1 - t0) > seconds:
                    break
        finally:
            if spec.teardown:
                spec.teardown(state)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = [p.result for p in passes]
    checks = [c for res in results for c in res.checks]
    if len(passes) > 1:
        digests = {res.digest for res in results}
        _check(checks, "outputs identical across passes", len(digests) == 1,
               f"{len(digests)} distinct digests")
    attempted = sum(r.completions + r.predictions + r.commands for r in results) + len(checks)
    failed = sum(r.errors for r in results) + sum(1 for _, ok, _ in checks if not ok)

    e2e = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "f1": statistics.median(r.quality["f1"] for r in results),
        "ndcg1.gbdt": statistics.median(r.quality["ndcg1.gbdt"] for r in results),
    }
    if not trace:
        e2e["pairs_per_ref_s"] = statistics.median(p.result.pairs / p.reference for p in passes)
    extra = {"pairs_per_s": statistics.median(p.result.pairs / p.wall for p in passes),
             "failed_frac": failed / attempted,
             **{k: v for k, v in results[0].quality.items() if k not in e2e}}
    out = {"workload": workload, "seed": seed, "trace": int(trace), "e2e": e2e,
           "extra": extra, "attempted": attempted, "failed": failed, "checks": checks,
           "digest": results[0].digest, "pass_s": [p.wall for p in passes],
           "setup_s": setup_times, "env": environment(),
           "probe_ms": statistics.median(probes) * 1000 if probes else None,
           "reference_probe_ms": REFERENCE_PROBE_S * 1000}
    if trace:
        first = passes[0]
        phases = {k: statistics.median(p.get(k, 0.0) for p in phase_runs)
                  for k in ("world", "train", "server")}
        out["per_layer"] = traced_metrics(first, phases)
        TRACE_DIR.mkdir(exist_ok=True)
        first.tracer.write(TRACE_DIR / f"trace-{workload}-s{seed}.jsonl")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(kgcausal.__file__).resolve().parents[1] != ROOT / "src":
        print(f"error: kgcausal imported from {kgcausal.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
