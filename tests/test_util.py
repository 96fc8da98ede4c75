"""Shared reader tests."""

from __future__ import annotations

import pytest

from kgcausal.errors import KgcausalError
from kgcausal.util import parse_fields


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_number_that_is_not_finite_is_rejected(number):
    with pytest.raises(KgcausalError, match=f"^rows.jsonl:3: invalid JSON: {number} is not"):
        parse_fields(dict, f'{{"x": [0.5, {number}]}}', "rows.jsonl:3")


def test_finite_numbers_parse_as_before():
    assert parse_fields(dict, '{"x": [0.5, -1e308, 2, 1e-320]}', "f") == {
        "x": [0.5, -1e308, 2, 1e-320]}
