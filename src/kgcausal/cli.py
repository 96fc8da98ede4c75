"""Command-line pipeline: extract, estimate, train, rank, discover, eval.

One JSON config file drives every stage; flags override config values, and
all randomness flows from the single top-level seed through named per-stage
sub-seeds.  Exit codes: 0 success, 1 completed with parse or evaluation
degradations, 2 configuration, I/O, or backend failures.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .discovery import (
    DEFAULT_DISCOVERY_TEMPLATE,
    DiscoveryConfig,
    EvaluationReport,
    GraphMetrics,
    aggregate_graph,
    classify_pairs,
    evaluate_classification,
    hamming_distance,
    read_predictions,
)
from .errors import KgcausalError
from .kg import MetapathSubgraph, load_kg
from .llm import HttpBackend, MockOracle, MockOracleConfig
from .ltr.metrics import ndcg_at_k, recall_at_k
from .ltr.models import (
    GBDT,
    NEURAL,
    RankerModel,
    TrainConfig,
    load_model,
    ranker_input_tokens,
    record_pair,
    record_subgraphs,
    save_model,
    score_subgraphs,
    train_gbdt_ranker,
    train_neural_ranker,
)
from .ltr.ngram import train_ngram_lm
from .relevance import (
    DEFAULT_SRE_TEMPLATE,
    PairInstance,
    RankedPairRecord,
    candidate_subgraphs,
    estimate_relevance,
    read_instances,
    read_ranked_dataset,
)
from .util import (
    atomic_write,
    descending_order,
    parse_fields,
    read_jsonl,
    stable_hash,
    write_jsonl,
)
from .verbalize import VerbalizationStyle

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_DEGRADED = 1
EXIT_CONFIG = 2

DEFAULT_CONFIG: dict = {
    "kg": {"path": None, "format": "triples-jsonl", "max_hops": 4, "candidate_limit": 64},
    "llm": {"backend": "mock", "endpoint": None, "model": "", "parallelism": 1,
            "max_retries": 3, "mock_config_path": None, "credential_env": None},
    "sre": {"k_max": 10},
    "ranker": {"kind": "neural", "loss": "ranknet",
               "ngram": {"n": 2, "d": 128, "epochs": 10, "lr": 0.5},
               "gbdt": {"rounds": 100, "depth": 3, "lr": 0.1},
               "train": {"epochs": 200, "lr": 0.05, "batch": 8}},
    "discovery": {"k": 1, "style": "plain_arrows"},
    "eval": {"ks": [1, 3, 5]},
    "seed": 0,
}

# Keys that take null although their default is not null: no candidate cap.
_NULLABLE = ("kg.candidate_limit",)

# Smallest value each of these integer keys takes.
_MINIMUMS = {"sre.k_max": 1, "ranker.ngram.n": 1, "ranker.ngram.d": 1,
             "llm.max_retries": 0}

# Command-line flag (argparse dest) -> the dotted config key it overrides.
_FLAG_KEYS = {"seed": "seed", "max_hops": "kg.max_hops", "kind": "ranker.kind",
              "loss": "ranker.loss", "k": "discovery.k"}

_TYPE_NAMES = {list: "a list", str: "a string", bool: "a boolean", int: "an integer",
               float: "a number", type(None): "null"}


def _merge_config(default, value, path: str = ""):
    """``value`` checked against ``default``, its part of DEFAULT_CONFIG, and
    completed from it; a KgcausalError names the dotted path of a misfit.
    Sections take only the default's keys and keep the defaults of the others.
    Values have their default's JSON type (list items that of its first item),
    except that any number fits a float, a string fits a null default, and
    null fits there and at the keys in ``_NULLABLE``; the keys in ``_MINIMUMS``
    take no value below theirs."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise KgcausalError(f"config key {path} must be a section")
        merged = copy.deepcopy(default)
        for key, item in value.items():
            key_path = f"{path}.{key}" if path else key
            if key not in default:
                raise KgcausalError(f"unknown config key {key_path}")
            merged[key] = _merge_config(default[key], item, key_path)
        return merged
    if isinstance(value, dict):
        raise KgcausalError(f"config key {path} must be a value, not a section")
    if isinstance(default, list) and isinstance(value, list):
        return [_merge_config(default[0], item, f"{path}[{i}]")
                for i, item in enumerate(value)]
    nullable = default is None or path in _NULLABLE
    if value is None and nullable:
        return None
    expected = type("" if default is None else default)
    if not (type(value) is expected or (expected is float and type(value) is int)):
        or_null = " or null" if nullable else ""
        raise KgcausalError(f"config key {path} must be {_TYPE_NAMES[expected]}{or_null}, "
                            f"not {_TYPE_NAMES[type(value)]}")
    if path in _MINIMUMS and value < _MINIMUMS[path]:
        raise KgcausalError(f"config key {path} must be >= {_MINIMUMS[path]}, not {value}")
    return value


def load_config(path: Optional[Path]) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        user = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise KgcausalError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise KgcausalError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(user, dict):
        raise KgcausalError(f"config file {path} must hold a JSON object")
    return _merge_config(DEFAULT_CONFIG, user)


def stage_seed(seed: int, stage: str) -> int:
    return stable_hash(f"{seed}:{stage}")


def make_backend(config: dict):
    llm = config["llm"]
    if llm["backend"] == "mock":
        if not llm["mock_config_path"]:
            raise KgcausalError("llm.mock_config_path is required for the mock backend")
        return MockOracle(MockOracleConfig.from_json(llm["mock_config_path"]))
    if llm["backend"] == "http":
        if not llm["endpoint"]:
            raise KgcausalError("llm.endpoint is required for the http backend")
        return HttpBackend(endpoint=llm["endpoint"], model=llm["model"],
                           credential_env=llm["credential_env"],
                           max_retries=llm["max_retries"], parallelism=llm["parallelism"])
    raise KgcausalError(f"unknown llm backend {llm['backend']!r}")


def _load_kg(config: dict):
    if not config["kg"]["path"]:
        raise KgcausalError("kg.path is required")
    return load_kg(config["kg"]["path"], config["kg"]["format"])


def _write_json(path, doc: dict) -> None:
    atomic_write(path, json.dumps(doc, ensure_ascii=False, indent=2) + "\n")


def _write_meta(out: Path, command: str, config: dict, summary: dict) -> None:
    _write_json(str(out) + ".meta.json",
                {"command": command, "config": config, "summary": summary})


def cmd_extract(args, config: dict) -> int:
    kg = _load_kg(config)
    instances = read_instances(args.pairs)
    seed = stage_seed(config["seed"], "extract")

    rows = []
    with_candidates = 0
    for inst in instances:
        candidates = candidate_subgraphs(
            inst, kg, max_hops=config["kg"]["max_hops"],
            candidate_limit=config["kg"]["candidate_limit"],
            k_max=config["sre"]["k_max"], seed=seed)
        if candidates:
            with_candidates += 1
        row = inst.to_dict()
        row["subgraphs"] = [sg.to_dict() for sg in candidates]
        rows.append(row)
    write_jsonl(args.out, rows)
    summary = {"pairs": len(instances), "pairs_with_candidates": with_candidates,
               "pairs_without_candidates": len(instances) - with_candidates}
    _write_meta(args.out, "extract", config, summary)
    logger.info("extract: %s", summary)
    return EXIT_OK


def _backend_stage(args, config: dict, command: str, pairs: int, run, summarize) -> int:
    """The failure policy shared by the stages that call the backend per pair.

    ``run(backend)`` returns the stage's ``llm.PairResults`` over ``pairs``
    pairs.  When every pair failed, nothing is written and the exit code is
    2.  Otherwise the records and a sidecar holding ``summarize(result)`` are
    written, and the exit code is 1 when a pair was skipped or the summary
    counts an unparseable answer.
    """
    backend = make_backend(config)
    try:
        result = run(backend)
    finally:
        backend.close()
    if pairs and result.skipped_backend_error == pairs:
        logger.error("backend failed for every pair; writing no output")
        return EXIT_CONFIG
    write_jsonl(args.out, [record.to_dict() for record in result.records])
    summary = summarize(result)
    _write_meta(args.out, command, config, summary)
    logger.info("%s: %s", command, summary)
    degraded = result.skipped_backend_error or summary.get("unparseable")
    return EXIT_DEGRADED if degraded else EXIT_OK


def _candidate_row(row: dict) -> tuple[PairInstance, list[MetapathSubgraph]]:
    return (PairInstance.from_dict(row),
            [MetapathSubgraph.from_dict(d) for d in row.get("subgraphs", [])])


def cmd_estimate(args, config: dict) -> int:
    k_max = config["sre"]["k_max"]
    rows = read_jsonl(args.candidates, _candidate_row)
    jobs = [(inst, subgraphs[:k_max]) for inst, subgraphs in rows if subgraphs]
    return _backend_stage(
        args, config, "estimate", len(jobs), lambda backend: estimate_relevance(jobs, backend),
        lambda result: {"pairs": len(rows), "records_written": len(result.records),
                        "skipped_no_subgraphs": len(rows) - len(jobs),
                        "skipped_backend_error": result.skipped_backend_error,
                        "backend_calls": result.backend_calls})


def cmd_train(args, config: dict) -> int:
    dataset = read_ranked_dataset(args.dataset)
    if not dataset:
        raise KgcausalError(f"ranked dataset {args.dataset} is empty")
    rcfg = config["ranker"]
    seed = stage_seed(config["seed"], "train")

    corpus = []
    for record in dataset:
        pair = record_pair(record)
        for sg in record_subgraphs(record):
            corpus.append(ranker_input_tokens(pair, sg))
    lm = train_ngram_lm(corpus, n=rcfg["ngram"]["n"], d=rcfg["ngram"]["d"],
                        seed=stage_seed(seed, "ngram"),
                        epochs=rcfg["ngram"]["epochs"],
                        learning_rate=rcfg["ngram"]["lr"])

    train_config = TrainConfig(
        epochs=rcfg["train"]["epochs"], learning_rate=rcfg["train"]["lr"],
        batch=rcfg["train"]["batch"], seed=seed,
        gbdt_rounds=rcfg["gbdt"]["rounds"], gbdt_max_depth=rcfg["gbdt"]["depth"],
        gbdt_learning_rate=rcfg["gbdt"]["lr"])
    kind = rcfg["kind"]
    if kind == NEURAL:
        model = train_neural_ranker(dataset, lm, rcfg["loss"], train_config)
    elif kind == GBDT:
        model = train_gbdt_ranker(dataset, lm, train_config)
    elif kind in ("similarity", "random"):
        model = RankerModel(kind=kind, seed=seed)
    else:
        raise KgcausalError(f"unknown ranker kind {kind!r}")

    save_model(model, args.out, lm)
    summary = {"kind": kind, "loss": model.loss_kind, "records": len(dataset),
               "lm_vocab": len(lm.vocab),
               "final_train_loss": (model.train_loss_history or model.train_rmse_history
                                    or [None])[-1]}
    _write_meta(args.out, "train", config, summary)
    logger.info("train: %s", summary)
    return EXIT_OK


def _subgraph_set(row: dict):
    """A candidate or ranked-dataset row -> (qid, pair, subgraphs, gains,
    relevant flags); the last two are None for a candidate row."""
    if "metapaths" in row:
        record = RankedPairRecord.from_dict(row)
        gains = [mp.relscore for mp in record.metapaths]
        relevant = [mp.relevant == "1" for mp in record.metapaths]
        return record.qid, (record.e1, record.e2), record_subgraphs(record), gains, relevant
    subgraphs = [MetapathSubgraph.from_dict(d) for d in row.get("subgraphs", [])]
    return str(row["qid"]), (row["e1"], row["e2"]), subgraphs, None, None


def cmd_rank(args, config: dict) -> int:
    model, lm = load_model(args.model)

    out_rows = []
    for qid, pair, subgraphs, gains, relevant in read_jsonl(args.candidates, _subgraph_set):
        if not subgraphs:
            out_rows.append({"qid": qid, "order": [], "entries": []})
            continue
        scores = score_subgraphs(model, pair, subgraphs, lm)
        order = descending_order(scores)
        entries = []
        for i in order:
            entry = {"stops": " - ".join(subgraphs[i].node_names),
                     "score": float(scores[i])}
            if gains is not None:
                entry["gain"] = gains[i]
                entry["relevant"] = relevant[i]
            entries.append(entry)
        out_rows.append({"qid": qid, "order": order, "entries": entries})
    write_jsonl(args.out, out_rows)
    summary = {"pairs": len(out_rows), "model_kind": model.kind}
    _write_meta(args.out, "rank", config, summary)
    return EXIT_OK


def cmd_discover(args, config: dict) -> int:
    instances = read_instances(args.pairs)
    if str(args.model).lower() == "none":
        # The bare prompt reads no path, so no graph is loaded.
        kg, model, lm = None, None, None
    else:
        kg = _load_kg(config)
        model, lm = load_model(args.model)

    discovery_config = DiscoveryConfig(
        k=config["discovery"]["k"],
        max_hops=config["kg"]["max_hops"],
        candidate_limit=config["kg"]["candidate_limit"],
        seed=stage_seed(config["seed"], "discover"),
        style=VerbalizationStyle(variant=config["discovery"]["style"]),
    )

    return _backend_stage(
        args, config, "discover", len(instances),
        lambda backend: classify_pairs(instances, kg, model, backend,
                                       config=discovery_config, lm=lm),
        lambda result: {"pairs": len(instances), "predictions_written": len(result.records),
                        "skipped_backend_error": result.skipped_backend_error,
                        "unparseable": sum(1 for p in result.records if p.predicted is None),
                        "backend_calls": result.backend_calls, "k": discovery_config.k})


def _ranking_metrics(rankings_path: Path, ks) -> dict:
    rankings = read_jsonl(rankings_path, lambda row: row["entries"])
    scored = [entries for entries in rankings if entries and "gain" in entries[0]]
    out = {}
    for k in ks:
        ndcgs, recalls = [], []
        for entries in scored:
            gains = [e["gain"] for e in entries]
            relevant = [bool(e.get("relevant")) for e in entries]
            ndcgs.append(ndcg_at_k(gains, k))
            recalls.append(recall_at_k(relevant, k, sum(relevant)))
        if scored:
            out[f"ndcg@{k}"] = sum(ndcgs) / len(ndcgs)
            out[f"recall@{k}"] = sum(recalls) / len(recalls)
    return out


# Short content hashes of the two prompt templates, for provenance.
TEMPLATE_HASHES = {"sre": f"{stable_hash(DEFAULT_SRE_TEMPLATE):016x}",
                   "discovery": f"{stable_hash(DEFAULT_DISCOVERY_TEMPLATE):016x}"}


def cmd_eval(args, config: dict) -> int:
    predictions = read_predictions(args.predictions)
    golds = read_instances(args.gold)
    classification = evaluate_classification(predictions, golds)

    ranking = {}
    if args.rankings:
        ranking = _ranking_metrics(args.rankings, config["eval"]["ks"])

    graph = None
    if args.gold_adjacency:
        doc = json.loads(Path(args.gold_adjacency).read_text(encoding="utf-8"))
        variables, gold_matrix = parse_fields(lambda d: (d["variables"], d["matrix"]), doc,
                                              str(args.gold_adjacency))
        by_qid = {inst.qid: inst for inst in golds}
        pair_labels = {}
        for pred in predictions:
            inst = by_qid[pred.qid]
            pair_labels[(inst.e1, inst.e2)] = pred.predicted
        adj = aggregate_graph(pair_labels, variables)
        hd, nhd = hamming_distance(adj, np.asarray(gold_matrix))
        graph = GraphMetrics(hd=hd, nhd=nhd, n=len(variables))

    report = EvaluationReport(classification=classification, ranking=ranking, graph=graph)
    doc = report.to_dict()
    if doc["graph"] is not None:
        # adjacency is built from independently classified ordered pairs,
        # both orientations of every unordered pair
        doc["graph"]["orientation"] = "all-ordered-pairs"
    doc["config"] = config
    doc["template_hashes"] = TEMPLATE_HASHES
    _write_json(args.out, doc)
    logger.info("eval: P=%.2f R=%.2f F1=%.2f, %d pairs without a prediction",
                classification.precision, classification.recall, classification.f1,
                classification.missing)
    unparseable = sum(1 for p in predictions if p.predicted is None)
    return EXIT_DEGRADED if unparseable or classification.missing else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgcausal",
        description="Metapath retrieval, subgraph ranking, and zero-shot "
                    "causal relation classification.")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="pipeline config JSON (defaults apply otherwise)")
        p.add_argument("--seed", type=int, default=None, help="override the top-level seed")
        p.add_argument("--out", type=Path, required=True, help="output artifact path")
        return p

    p = common(sub.add_parser("extract", help="enumerate candidate subgraphs per pair"))
    p.add_argument("pairs", type=Path)
    p.add_argument("--max-hops", type=int, default=None)
    p.set_defaults(func=cmd_extract)

    p = common(sub.add_parser("estimate", help="score candidates into a ranked dataset"))
    p.add_argument("candidates", type=Path)
    p.set_defaults(func=cmd_estimate)

    p = common(sub.add_parser("train", help="train a subgraph ranker"))
    p.add_argument("dataset", type=Path)
    p.add_argument("--kind", choices=["neural", "gbdt", "similarity", "random"],
                   default=None)
    p.add_argument("--loss", choices=["rmse", "ranknet", "listnet"], default=None)
    p.set_defaults(func=cmd_train)

    p = common(sub.add_parser("rank", help="apply a trained ranker to candidates"))
    p.add_argument("model", type=Path)
    p.add_argument("candidates", type=Path)
    p.set_defaults(func=cmd_rank)

    p = common(sub.add_parser("discover", help="zero-shot classification with top-k paths"))
    p.add_argument("model", type=str, help="model file, or 'none' for the bare prompt")
    p.add_argument("pairs", type=Path)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_discover)

    p = common(sub.add_parser("eval", help="score predictions against gold labels"))
    p.add_argument("predictions", type=Path)
    p.add_argument("gold", type=Path)
    p.add_argument("--rankings", type=Path, default=None)
    p.add_argument("--gold-adjacency", type=Path, default=None)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        config = load_config(args.config)
        for flag, key_path in _FLAG_KEYS.items():
            value = getattr(args, flag, None)
            if value is not None:
                section, _, key = key_path.rpartition(".")
                (config[section] if section else config)[key] = value
        return args.func(args, config)
    except (KgcausalError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
