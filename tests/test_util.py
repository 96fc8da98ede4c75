"""Shared reader tests."""

from __future__ import annotations

import pytest

from kgcausal.errors import KgcausalError
from kgcausal.util import parse_fields, write_jsonl


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
