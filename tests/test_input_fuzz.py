"""A seeded fuzz of the input readers.

In the first row of each input kind (or its whole document), one field is
replaced with each of 14 probe values, and every reader the commands use
for that kind reads the result.  A reader either parses it or raises a
KgcausalError (which the CLI reports with exit 2); any other exception is a
traceback.  Each distinct field is probed once, at a seeded choice of its
list positions.
"""

from __future__ import annotations

import copy
import json
import math
import random

import pytest

from kgcausal import cli
from kgcausal.cli import DEFAULT_CONFIG, load_config, main
from kgcausal.discovery import read_predictions
from kgcausal.errors import KgcausalError
from kgcausal.kg import load_kg
from kgcausal.llm import MockOracleConfig
from kgcausal.ltr.models import MODEL_KINDS, load_model
from kgcausal.relevance import read_instances, read_ranked_dataset
from kgcausal.util import _unique_qids, read_fields, read_json, read_jsonl

PROBE_VALUES = (None, True, 0, -1, 2 ** 70, 1e308, math.nan, math.inf, "", "x", [], {}, [1],
                ["a", "a"])


def jsonl_reader(parse):
    """A JSON Lines reader as the commands call it, with unique qids."""
    return lambda path: read_jsonl(path, _unique_qids(parse))


def json_reader(parse):
    return lambda path: read_json(path, parse)


READERS = {
    "pairs": [read_instances],
    "candidates": [jsonl_reader(cli._candidate_row), jsonl_reader(cli._subgraph_set)],
    "ranked": [read_ranked_dataset, jsonl_reader(cli._subgraph_set)],
    "predictions": [read_predictions],
    "rankings": [jsonl_reader(cli._ranked_gains)],
    "gold-adjacency": [json_reader(cli._gold_adjacency)],
    "config": [load_config],
    "mock-config": [json_reader(lambda d: read_fields(MockOracleConfig, d))],
    **{f"model-{kind}": [load_model] for kind in MODEL_KINDS},
    "kg": [load_kg],
}


def first_row(path):
    return json.loads(path.read_text(encoding="utf-8").splitlines()[0])


@pytest.fixture(scope="module")
def documents(artifacts, tmp_path_factory):
    """A valid first row or document of each input kind."""
    root = tmp_path_factory.mktemp("fuzz-inputs")
    docs = {name: first_row(artifacts / f"{name}.jsonl")
            for name in ("pairs", "candidates", "ranked", "predictions", "kg")}
    config = json.loads((artifacts / "config.json").read_text(encoding="utf-8"))
    config["ranker"] = {"gbdt": {"rounds": 2}, "ngram": {"d": 4, "epochs": 1},
                        "train": {"epochs": 1}}
    for kind in MODEL_KINDS:
        config["ranker"]["kind"] = kind
        cfg = root / f"{kind}.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        model = root / f"model-{kind}.json"
        assert main(["train", str(artifacts / "ranked.jsonl"), "--config", str(cfg),
                     "--out", str(model)]) == 0
        docs[f"model-{kind}"] = json.loads(model.read_text(encoding="utf-8"))
    rankings = root / "rankings.jsonl"
    assert main(["rank", str(root / "model-gbdt.json"), str(artifacts / "ranked.jsonl"),
                 "--config", str(cfg), "--out", str(rankings)]) == 0
    docs["rankings"] = first_row(rankings)
    docs["gold-adjacency"] = {"variables": ["a", "b", "c"],
                              "matrix": [[0, 1, 0], [0, 0, 0], [1, 0, 0]]}
    docs["config"] = DEFAULT_CONFIG
    docs["mock-config"] = json.loads((artifacts / "mock.json").read_text(encoding="utf-8"))
    return docs


def field_paths(value, prefix=()):
    """The path of every value inside ``value``, as dict keys and list
    indices, parents first."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        path = (*prefix, key)
        yield path
        yield from field_paths(item, path)


def probed_paths(doc, rng: random.Random):
    """The whole document, then one path per distinct field: list indices
    are drawn from the paths that differ only in them."""
    fields: dict[tuple, list[tuple]] = {}
    for path in field_paths(doc):
        fields.setdefault(tuple(k if isinstance(k, str) else "*" for k in path), []).append(path)
    return [()] + [rng.choice(paths) for paths in fields.values()]


def replaced(doc, path, value):
    """``doc`` with ``value`` at ``path``; only the containers on the path
    are copied."""
    if not path:
        return value
    copied = copy.copy(doc)
    copied[path[0]] = replaced(doc[path[0]], path[1:], value)
    return copied


@pytest.mark.parametrize("kind", READERS)
def test_readers_parse_or_raise_a_kgcausal_error(documents, tmp_path, kind):
    rng = random.Random(f"fuzz:{kind}")
    path = tmp_path / "input.json"
    failures = []
    for field in probed_paths(documents[kind], rng):
        for value in PROBE_VALUES:
            path.write_text(json.dumps(replaced(documents[kind], field, value)) + "\n",
                            encoding="utf-8")
            for read in READERS[kind]:
                try:
                    read(path)
                except KgcausalError:
                    pass
                except Exception as exc:  # a traceback at the command line
                    failures.append(f"{'.'.join(map(str, field))} = {value!r}: "
                                    f"{type(exc).__name__}: {exc}")
    assert not failures, "\n".join(failures[:20])
