"""Shared reader tests."""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import asdict, dataclass, field
from typing import Literal, Optional

import pytest

from kgcausal.discovery import CausalPrediction
from kgcausal.errors import KgcausalError
from kgcausal.kg import FORWARD, REVERSE, MetapathSubgraph
from kgcausal.llm import CAUSAL, NON_CAUSAL
from kgcausal.relevance import RankedMetapath, RankedPairRecord
from kgcausal.util import parse_fields, read_fields, write_json, write_jsonl


@dataclass(frozen=True)
class Leaf:
    x: float
    tags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Row:
    n: int
    leaves: list[Leaf]
    note: Optional[str] = None
    flag: bool = field(default=False, metadata={"key": "is_flag"})


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_number_that_is_not_finite_is_rejected(number):
    with pytest.raises(KgcausalError, match=f"^rows.jsonl:3: invalid JSON: {number} is not"):
        parse_fields(dict, f'{{"x": [0.5, {number}]}}', "rows.jsonl:3")


def test_finite_numbers_parse_as_before():
    assert parse_fields(dict, '{"x": [0.5, -1e308, 2, 1e-320]}', "f") == {
        "x": [0.5, -1e308, 2, 1e-320]}


def test_jsonl_write_that_fails_midway_leaves_the_old_file(tmp_path):
    """Rows are written as they are made; a row that cannot be written after
    others were leaves the old file and no temporary file."""
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, iter([{"a": 1}, {"b": "é"}]))
    assert path.read_text(encoding="utf-8") == '{"a": 1}\n{"b": "é"}\n'
    with pytest.raises(TypeError):
        write_jsonl(path, ({"a": 2} if i < 3 else {"a": object()} for i in range(5)))
    assert path.read_text(encoding="utf-8") == '{"a": 1}\n{"b": "é"}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]


@pytest.mark.parametrize("indent", [None, 2])
def test_json_write_encodes_like_json_dumps(tmp_path, indent):
    doc = {"a": [1, 0.5, -1e308], "b": {"é": None, "c": True}, "d": []}
    write_json(tmp_path / "doc.json", doc, indent=indent)
    assert (tmp_path / "doc.json").read_text(encoding="utf-8") == (
        json.dumps(doc, ensure_ascii=False, indent=indent) + "\n")


@pytest.mark.parametrize("number", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("write", [
    lambda path, value: write_json(path, {"a": [1.0, value]}),
    lambda path, value: write_json(path, {"a": {"b": value}}, indent=2),
    lambda path, value: write_jsonl(path, iter([{"a": 1.0}, {"a": value}])),
], ids=["json", "json-indented", "jsonl"])
def test_number_that_is_not_finite_is_not_written(tmp_path, write, number):
    """Such a number is a ValueError naming the file, which keeps its old
    text; no temporary file is left."""
    path = tmp_path / "out.json"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*not JSON compliant"):
        write(path, number)
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_read_fields_follows_the_annotations():
    """Ints read as floats where a float is annotated, tuples and lists as
    annotated, omitted defaults kept, a metadata key followed and unknown
    keys ignored."""
    row = read_fields(Row, {"n": 2, "leaves": [{"x": 1}, {"x": 0.5, "tags": ["a"]}],
                            "note": None, "is_flag": True, "extra": [1]})
    assert row == Row(n=2, leaves=[Leaf(1.0), Leaf(0.5, ("a",))], flag=True)
    assert type(row.leaves[0].x) is float and type(row.leaves[1].tags) is tuple


@pytest.mark.parametrize("d,message", [
    ({"n": True, "leaves": []}, "n must be an integer, not true"),
    ({"n": 1.0, "leaves": []}, "n must be an integer, not 1.0"),
    ({"n": 1, "leaves": {}}, "leaves must be a list, not {}"),
    ({"n": 1, "leaves": [5]}, "leaves[0] must be an object, not 5"),
    ({"n": 1, "leaves": [{"x": True}]}, "leaves[0].x must be a number, not true"),
    ({"n": 1, "leaves": [{"x": "1"}]}, 'leaves[0].x must be a number, not "1"'),
    ({"n": 1, "leaves": [{"x": 1, "tags": "ab"}]}, 'leaves[0].tags must be a list, not "ab"'),
    ({"n": 1, "leaves": [{"x": 1, "tags": ["a", 2]}]},
     "leaves[0].tags[1] must be a string, not 2"),
    ({"n": 1, "leaves": [], "note": 3}, "note must be a string, not 3"),
    ({"n": 1, "leaves": [], "is_flag": 1}, "is_flag must be a boolean, not 1"),
])
def test_read_fields_names_the_key_path_of_a_misfit(d, message):
    with pytest.raises(ValueError) as exc:
        read_fields(Row, d)
    assert str(exc.value) == message


@pytest.mark.parametrize("d,key", [({"leaves": []}, "n"),
                                   ({"n": 1, "leaves": [{"tags": []}]}, "leaves[0].x")])
def test_read_fields_names_a_missing_field(d, key):
    with pytest.raises(KeyError) as exc:
        read_fields(Row, d)
    assert exc.value.args[0] == key


@dataclass(frozen=True)
class Choice:
    flag: Literal["1", "0"]


@pytest.mark.parametrize("value,message", [
    ("maybe", 'flag must be "1" or "0", not "maybe"'),
    ("", 'flag must be "1" or "0", not ""'),
    (1, "flag must be a string, not 1"),
    (True, "flag must be a string, not true"),
    (None, "flag must be a string, not null"),
], ids=["maybe", "empty", "int", "true", "null"])
def test_read_fields_takes_only_the_values_of_a_literal(value, message):
    assert read_fields(Choice, {"flag": "0"}) == Choice("0")
    with pytest.raises(ValueError) as exc:
        read_fields(Choice, {"flag": value})
    assert str(exc.value) == message


def test_rows_dump_as_asdict_does():
    """The rows' to_dict returns their fields without copies, equal to what
    ``asdict`` returns, key for key and in key order, with tuples kept as
    tuples."""
    rng = random.Random(11)

    def text():
        return "".join(rng.choice("ab -\u2192\u00e9") for _ in range(rng.randint(0, 6)))

    def texts(k):
        return tuple(text() for _ in range(k))

    for _ in range(200):
        k = rng.randint(2, 6)
        path = MetapathSubgraph(
            node_ids=tuple(f"n{i}" for i in range(k)), node_names=texts(k), node_types=texts(k),
            edge_labels=texts(k - 1),
            edge_directions=tuple(rng.choice((FORWARD, REVERSE)) for _ in range(k - 1)))
        record = RankedPairRecord(
            qid=text(), e1=text(), e2=text(), groundtruth=rng.choice("10"),
            metapaths=tuple(RankedMetapath(
                pathid=i, relscore=rng.uniform(0, 2), probscore=rng.choice((None, -rng.random())),
                relevant=rng.choice("10"), stops=text(), reltypes=text(), nodelabels=text())
                for i in range(rng.randint(0, 4))))
        prediction = CausalPrediction(
            qid=text(), predicted=rng.choice((CAUSAL, NON_CAUSAL, None)), p=rng.random(),
            subgraphs_used=texts(rng.randint(0, 3)), backend_id=text())
        for row in (path, record, prediction):
            d, expected = row.to_dict(), asdict(row)
            assert d == expected
            assert json.dumps(d) == json.dumps(expected)  # key order too
            assert all(type(d[key]) is type(value) for key, value in expected.items())
