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

from .discovery import (
    DEFAULT_DISCOVERY_TEMPLATE,
    DiscoveryConfig,
    _checked_adjacency,
    aggregate_graph,
    classify_pair,
    evaluate_classification,
    hamming_distance,
    read_predictions,
)
from .errors import KgcausalError
from .kg import MetapathSubgraph, load_kg
from .llm import HttpBackend, MockOracle, MockOracleConfig, map_pairs
from .ltr.metrics import ndcg_at_k, recall_at_k
from .ltr.losses import LOSS_KINDS
from .ltr.models import (
    EMBEDDING_KINDS,
    GBDT,
    MODEL_KINDS,
    NEURAL,
    RANDOM,
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
    candidate_subgraphs,
    parse_ranked_record,
    rank_pair,
    read_instances,
    read_ranked_dataset,
)
from .util import (
    _field,
    _unique_qids,
    descending_order,
    read_fields,
    read_json,
    read_jsonl,
    stable_hash,
    write_json,
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

# Smallest value each of these integer keys, or each item of the list at
# the key, takes.
_MINIMUMS = {"kg.max_hops": 1, "kg.candidate_limit": 1, "llm.parallelism": 1,
             "llm.max_retries": 0, "sre.k_max": 1, "ranker.ngram.n": 1,
             "ranker.ngram.d": 1, "ranker.ngram.epochs": 1, "ranker.train.epochs": 1,
             "ranker.train.batch": 1, "ranker.gbdt.rounds": 1, "ranker.gbdt.depth": 0,
             "discovery.k": 1, "eval.ks": 1}

# Command-line flag (argparse dest) -> the dotted config key it overrides.
_FLAG_KEYS = {"seed": "seed", "max_hops": "kg.max_hops", "kind": "ranker.kind",
              "loss": "ranker.loss", "k": "discovery.k"}


def _merge_config(default, value, path: str = ""):
    """``value`` checked against ``default``, its part of DEFAULT_CONFIG, and
    completed from it; a KgcausalError names the dotted path of a misfit.
    Sections take only the default's keys and keep the defaults of the others.
    A value is read by :func:`util._field` for its default's type, a list's
    items for that of its first item, and as an optional string where the
    default is null; the keys in ``_NULLABLE`` take null too, and those in
    ``_MINIMUMS`` no value below theirs.  The value is kept as given, so
    an integer at a float key stays an integer."""
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
    if isinstance(default, list) and isinstance(value, list):
        return [_merge_config(default[0], item, f"{path}[{i}]")
                for i, item in enumerate(value)]
    hint = type("" if default is None else default)
    if hint is list:  # a value that is not a list
        hint = list[type(default[0])]
    if default is None or path in _NULLABLE:
        hint = Optional[hint]
    try:
        _field(hint)(value, path)
    except ValueError as exc:
        raise KgcausalError(f"config key {exc}") from None
    minimum = _MINIMUMS.get(path.partition("[")[0])
    if minimum is not None and value is not None and value < minimum:
        raise KgcausalError(f"config key {path} must be >= {minimum}, not {value}")
    return value


def load_config(path: Optional[Path]) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    return read_json(path, lambda user: _merge_config(DEFAULT_CONFIG, user))


def stage_seed(seed: int, stage: str) -> int:
    return stable_hash(f"{seed}:{stage}")


def make_backend(config: dict):
    llm = config["llm"]
    if llm["backend"] == "mock":
        if not llm["mock_config_path"]:
            raise KgcausalError("llm.mock_config_path is required for the mock backend")
        return MockOracle(read_json(llm["mock_config_path"],
                                    lambda d: read_fields(MockOracleConfig, d)))
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


def _write_meta(out: Path, command: str, config: dict, summary: dict) -> None:
    write_json(str(out) + ".meta.json",
               {"command": command, "config": config, "summary": summary}, indent=2)


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


def _backend_stage(args, config: dict, command: str, jobs: list, fn, qid, summarize) -> int:
    """A stage that calls the backend per pair: ``llm.map_pairs`` of
    ``fn(job, backend)`` over ``jobs``, failed jobs logged under ``qid(job)``.
    When every job failed, nothing is written and the exit code is 2.
    Otherwise the records and a sidecar holding ``summarize(result)`` are
    written, and the exit code is 1 when a job was skipped or the summary
    counts an unparseable answer."""
    backend = make_backend(config)
    try:
        result = map_pairs(lambda job: fn(job, backend), jobs, backend, qid)
    finally:
        backend.close()
    if jobs and result.skipped_backend_error == len(jobs):
        logger.error("backend failed for every pair; writing no output")
        return EXIT_CONFIG
    write_jsonl(args.out, [record.to_dict() for record in result.records])
    summary = summarize(result)
    _write_meta(args.out, command, config, summary)
    logger.info("%s: %s", command, summary)
    degraded = result.skipped_backend_error or summary.get("unparseable")
    return EXIT_DEGRADED if degraded else EXIT_OK


def _candidate_row(row: dict) -> tuple[PairInstance, list[MetapathSubgraph]]:
    return (read_fields(PairInstance, row),
            _field(list[MetapathSubgraph])(row.get("subgraphs", []), "subgraphs"))


def cmd_estimate(args, config: dict) -> int:
    k_max = config["sre"]["k_max"]
    rows = read_jsonl(args.candidates, _unique_qids(_candidate_row))
    jobs = [(inst, subgraphs[:k_max]) for inst, subgraphs in rows if subgraphs]
    return _backend_stage(
        args, config, "estimate", jobs, lambda job, backend: rank_pair(*job, backend),
        lambda job: job[0].qid,
        lambda result: {"pairs": len(rows), "records_written": len(result.records),
                        "skipped_no_subgraphs": len(rows) - len(jobs),
                        "skipped_backend_error": result.skipped_backend_error,
                        "unparseable": sum(mp.probscore is None for record in result.records
                                           for mp in record.metapaths),
                        "backend_calls": result.backend_calls})


def cmd_train(args, config: dict) -> int:
    rcfg = config["ranker"]
    kind = rcfg["kind"]
    for key, value, allowed in (("kind", kind, MODEL_KINDS), ("loss", rcfg["loss"], LOSS_KINDS)):
        if value not in allowed:
            raise KgcausalError(f"config key ranker.{key} must be one of "
                                f"{', '.join(allowed)}, not {value!r}")
    if kind in EMBEDDING_KINDS and rcfg["ngram"]["n"] < 2:
        # an order-1 LM has no context, so its embeddings would stay at
        # their random initial draw
        raise KgcausalError(f"config key ranker.ngram.n must be at least 2 for "
                            f"ranker.kind {kind}, not {rcfg['ngram']['n']}")
    seed = stage_seed(config["seed"], "train")
    train_config = TrainConfig(
        epochs=rcfg["train"]["epochs"], learning_rate=rcfg["train"]["lr"],
        batch=rcfg["train"]["batch"], seed=seed,
        gbdt_rounds=rcfg["gbdt"]["rounds"], gbdt_max_depth=rcfg["gbdt"]["depth"],
        gbdt_learning_rate=rcfg["gbdt"]["lr"])
    dataset = read_ranked_dataset(args.dataset)
    if not dataset:
        raise KgcausalError(f"ranked dataset {args.dataset} is empty")

    lm = None
    if kind != RANDOM:  # a random scorer reads nothing of the LM
        corpus = [ranker_input_tokens(record_pair(record), sg)
                  for record in dataset for sg in record_subgraphs(record)]
        lm = train_ngram_lm(corpus, n=rcfg["ngram"]["n"], d=rcfg["ngram"]["d"],
                            seed=stage_seed(seed, "ngram"),
                            epochs=rcfg["ngram"]["epochs"],
                            learning_rate=rcfg["ngram"]["lr"])

    if kind == NEURAL:
        model = train_neural_ranker(dataset, lm, rcfg["loss"], train_config)
    elif kind == GBDT:
        model = train_gbdt_ranker(dataset, lm, train_config)
    else:
        model = RankerModel(kind=kind, seed=seed)

    save_model(model, args.out, lm)
    summary = {"kind": kind, "loss": model.loss_kind, "records": len(dataset),
               "lm_vocab": len(lm.vocab) if lm else None,
               "final_train_loss": (model.train_loss_history or model.train_rmse_history
                                    or [None])[-1]}
    _write_meta(args.out, "train", config, summary)
    logger.info("train: %s", summary)
    return EXIT_OK


def _subgraph_set(row: dict):
    """A candidate or ranked-dataset row -> (qid, pair, subgraphs, extras),
    where ``extras[i]`` holds the ranking entry fields of path i beyond its
    stops and score: its gain and relevant flag in a ranked row, none in a
    candidate row."""
    if "metapaths" in row:
        record = parse_ranked_record(row)
        extras = [{"gain": mp.relscore, "relevant": mp.relevant == "1"}
                  for mp in record.metapaths]
        return record.qid, (record.e1, record.e2), record_subgraphs(record), extras
    inst, subgraphs = _candidate_row(row)
    return inst.qid, (inst.e1, inst.e2), subgraphs, [{}] * len(subgraphs)


def cmd_rank(args, config: dict) -> int:
    model, lm = load_model(args.model)

    out_rows = []
    for qid, pair, subgraphs, extras in read_jsonl(args.candidates, _unique_qids(_subgraph_set)):
        scores = score_subgraphs(model, pair, subgraphs, lm)
        order = descending_order(scores)
        entries = [{"stops": " - ".join(subgraphs[i].node_names), "score": float(scores[i]),
                    **extras[i]} for i in order]
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
        # The model first: a bad model file fails before the graph load.
        model, lm = load_model(args.model)
        kg = _load_kg(config)

    discovery_config = DiscoveryConfig(
        k=config["discovery"]["k"],
        max_hops=config["kg"]["max_hops"],
        candidate_limit=config["kg"]["candidate_limit"],
        seed=stage_seed(config["seed"], "discover"),
        style=VerbalizationStyle(variant=config["discovery"]["style"]),
    )

    return _backend_stage(
        args, config, "discover", instances,
        lambda instance, backend: classify_pair(instance, kg, model, backend,
                                                config=discovery_config, lm=lm),
        lambda instance: instance.qid,
        lambda result: {"pairs": len(instances), "predictions_written": len(result.records),
                        "skipped_backend_error": result.skipped_backend_error,
                        "unparseable": sum(1 for p in result.records if p.predicted is None),
                        "backend_calls": result.backend_calls, "k": discovery_config.k})


def _ranked_gains(row: dict):
    """(gains, relevant flags) of a rankings row; None when no entry has a
    gain.  Where some have one, an entry without it is a missing field."""
    entries = row["entries"]
    if type(entries) is not list or not all(type(e) is dict for e in entries):
        raise ValueError(f"entries must be a list of objects, not {json.dumps(entries)}")
    if not any("gain" in e for e in entries):
        return None
    for i, e in enumerate(entries):
        if "gain" not in e:
            raise KeyError(f"entries[{i}].gain")
    return ([_field(float)(e["gain"], f"entries[{i}].gain") for i, e in enumerate(entries)],
            [_field(bool)(e.get("relevant", False), f"entries[{i}].relevant")
             for i, e in enumerate(entries)])


def _ranking_metrics(rankings_path: Path, ks) -> dict:
    rows = read_jsonl(rankings_path, _unique_qids(_ranked_gains))
    scored = [row for row in rows if row is not None]
    out = {}
    for k in ks:
        ndcgs, recalls = [], []
        for gains, relevant in scored:
            ndcgs.append(ndcg_at_k(gains, k))
            recalls.append(recall_at_k(relevant, k, sum(relevant)))
        if scored:
            out[f"ndcg@{k}"] = sum(ndcgs) / len(ndcgs)
            out[f"recall@{k}"] = sum(recalls) / len(recalls)
    return out


# Short content hashes of the two prompt templates, for provenance.
TEMPLATE_HASHES = {"sre": f"{stable_hash(DEFAULT_SRE_TEMPLATE):016x}",
                   "discovery": f"{stable_hash(DEFAULT_DISCOVERY_TEMPLATE):016x}"}


def _gold_adjacency(doc: dict):
    """(variables, matrix) of a gold adjacency file, checked."""
    variables = doc["variables"]
    if not (isinstance(variables, list) and all(isinstance(v, str) for v in variables)
            and len(set(variables)) == len(variables)):
        raise ValueError("adjacency variables must be a list of distinct strings")
    return variables, _checked_adjacency(doc["matrix"], len(variables))


def cmd_eval(args, config: dict) -> int:
    predictions = read_predictions(args.predictions)
    golds = read_instances(args.gold)
    classification = evaluate_classification(predictions, golds)

    ranking = {}
    if args.rankings:
        ranking = _ranking_metrics(args.rankings, config["eval"]["ks"])

    graph = None
    if args.gold_adjacency:
        variables, gold_matrix = read_json(args.gold_adjacency, _gold_adjacency)
        by_qid = {inst.qid: inst for inst in golds}
        pair_labels = {}
        for pred in predictions:
            inst = by_qid[pred.qid]
            pair_labels[(inst.e1, inst.e2)] = pred.predicted
        adj = aggregate_graph(pair_labels, variables)
        hd, nhd = hamming_distance(adj, gold_matrix)
        # adjacency is built from independently classified ordered pairs,
        # both orientations of every unordered pair
        graph = {"hd": hd, "nhd": nhd, "n": len(variables), "orientation": "all-ordered-pairs"}

    write_json(args.out, {"classification": classification.to_dict(), "ranking": ranking,
                          "graph": graph, "config": config,
                          "template_hashes": TEMPLATE_HASHES}, indent=2)
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
    p.add_argument("--kind", choices=MODEL_KINDS, default=None)
    p.add_argument("--loss", choices=LOSS_KINDS, default=None)
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
        config = _merge_config(DEFAULT_CONFIG, config)  # checks the flag values too
        return args.func(args, config)
    except (KgcausalError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
