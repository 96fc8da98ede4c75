"""Cached ranker-input pieces and their n-gram slots against their uncached
definitions."""

from __future__ import annotations

import importlib
import json
import random
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import encode_ranker_input, make_subgraph
from kgcausal.kg import MetapathSubgraph
from kgcausal.ltr import models
from kgcausal.ltr.models import _hashed_matrix, _path_slots, ranker_input_tokens
from kgcausal.ltr.ngram import DEFAULT_HASH_DIM, MAX_ORDER, hashed_slots
from kgcausal.util import read_fields, stable_hash
from kgcausal.verbalize import CLS, SEP, piece_tokens, tokenize

WORDS = ["FGF6", "fgf6", "Prostate", "cancer", "CLS", "SEP", "cls", "Sep", "-", "x", "TNF-a"]
HASH_DIMS = (7, 256, 1024)
# The package exports a function named verbalize, which shadows the module.
verbalize_module = importlib.import_module("kgcausal.verbalize")


def oracle_tokens(pair, subgraph):
    return tokenize(" ".join(encode_ranker_input(pair, subgraph)))


def oracle_slots(tokens, n, hash_dim):
    return [stable_hash(*ngram) % hash_dim for order in range(1, n + 1)
            for ngram in zip(*(tokens[i:] for i in range(order)))]


def random_text(rng, words=3):
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, words)))


def random_case(rng):
    """A pair and a subgraph of 2-5 nodes with some empty types."""
    nodes = rng.randint(2, 5)
    subgraph = make_subgraph(
        names=[random_text(rng) for _ in range(nodes)],
        types=[rng.choice(["", random_text(rng, 2)]) for _ in range(nodes)],
        labels=[random_text(rng, 2) for _ in range(nodes - 1)],
        ids=[f"n{i}" for i in range(nodes)])
    return (random_text(rng), random_text(rng)), subgraph


def random_sparse_case(rng):
    """:func:`random_case` whose texts may tokenize to nothing, so that a
    piece may be shorter than n - 1 tokens, or empty.  One node is typed CLS
    or SEP, and one of the pair's variables is a node's name, so that a
    pair's piece and a node's share their name and may share their words."""
    def text(words=3):
        return rng.choice(["", "  ", random_text(rng, words)])

    nodes = rng.randint(2, 6)
    names = [text() for _ in range(nodes)]
    types = [rng.choice(["", text(2)]) for _ in range(nodes)]
    types[rng.randrange(nodes)] = rng.choice([CLS, SEP])
    subgraph = make_subgraph(
        names=names, types=types, labels=[text(2) for _ in range(nodes - 1)],
        ids=[f"n{i}" for i in range(nodes)])
    pair = [text(), text()]
    pair[rng.randrange(2)] = rng.choice(names)
    return tuple(pair), subgraph


def random_tokens(rng):
    return [rng.choice(WORDS).lower() for _ in range(rng.randint(0, 12))]


@pytest.fixture
def fresh_caches(monkeypatch):
    monkeypatch.setattr(verbalize_module, "_tokens", {})
    monkeypatch.setattr(models, "_piece_slots", {})
    monkeypatch.setattr(models, "_aheads", {})


@pytest.fixture
def tiny_caches(monkeypatch, fresh_caches):
    """Bounds of a few entries, so that the caches are full almost at once."""
    monkeypatch.setattr(verbalize_module, "_TOKENS_LIMIT", 3)
    monkeypatch.setattr(models, "_PIECE_SLOTS_LIMIT", 5)


def check_tokens(cases):
    for pair, subgraph in cases:
        assert ranker_input_tokens(pair, subgraph) == oracle_tokens(pair, subgraph)


def check_slots(token_lists):
    for tokens in token_lists:
        for n in range(1, 5):
            for hash_dim in HASH_DIMS:
                assert hashed_slots(tokens, n, hash_dim) == oracle_slots(tokens, n, hash_dim)


def test_tokens_equal_the_uncached_encoding(fresh_caches):
    rng = random.Random(1)
    cases = [random_case(rng) for _ in range(300)]
    check_tokens(cases)
    check_tokens(cases)  # now from the cache


def test_tokens_keep_markers_and_fill_empty_types_with_labels(fresh_caches):
    sg = make_subgraph(["CLS Gene", "b SEP"], types=["", "Disease"], labels=["Binds"])
    assert ranker_input_tokens(("A", "b c"), sg) == [
        "CLS", "a", "b", "c", "SEP", "binds", "CLS", "gene", "-", "disease", "b", "SEP"]


def test_tokens_are_a_fresh_list_each_call(fresh_caches):
    sg = make_subgraph(["x y", "z"])
    first = ranker_input_tokens(("P", "Q"), sg)
    expected = list(first)
    first.append("extra")
    first[1] = "changed"
    second = ranker_input_tokens(("P", "Q"), sg)
    assert second == expected
    assert second is not first


def test_slots_equal_the_per_ngram_hash(fresh_caches):
    rng = random.Random(2)
    token_lists = [random_tokens(rng) for _ in range(100)]
    check_slots(token_lists)


def test_counts_sum_to_the_ngram_count(fresh_caches):
    slots = hashed_slots(["a", "b", "c", "d"], n=4, hash_dim=7)
    assert len(slots) == 4 + 3 + 2 + 1
    assert slots == hashed_slots(("a", "b", "c", "d"), n=4, hash_dim=7)


def test_caches_stay_within_their_bounds(tiny_caches):
    rng = random.Random(3)
    check_tokens([random_case(rng) for _ in range(100)])
    check_slots([random_tokens(rng) for _ in range(40)])
    assert 0 < len(verbalize_module._tokens) <= 3


def test_caches_under_threads(tiny_caches):
    rng = random.Random(4)
    cases = [random_case(rng) for _ in range(60)]
    token_lists = [random_tokens(rng) for _ in range(20)]

    def work(_):
        check_tokens(cases)
        check_slots(token_lists)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(work, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)


def check_pieces(cases, orders=range(1, MAX_ORDER + 1)):
    """Piece by piece, the slots of the whole input, in another order."""
    for pair, subgraph in cases:
        tokens = oracle_tokens(pair, subgraph)
        assert ranker_input_tokens(pair, subgraph) == tokens
        for n in orders:
            row, = _path_slots(n, pair, [subgraph])
            assert Counter(row) == Counter(oracle_slots(tokens, n, DEFAULT_HASH_DIM))


def test_slots_with_ahead_are_those_of_the_ngrams_starting_in_the_tokens(fresh_caches):
    rng = random.Random(5)
    for _ in range(100):
        tokens, ahead = random_tokens(rng), random_tokens(rng)
        for n in range(1, 6):
            seq = tokens + ahead
            expected = [stable_hash(*seq[start:start + order]) % 7
                        for order in range(1, n + 1)
                        for start in range(len(tokens)) if start + order <= len(seq)]
            assert hashed_slots(tokens, n, 7, ahead) == expected
            assert hashed_slots(tuple(tokens), n, 7, tuple(ahead)) == expected


def test_piecewise_slots_count_like_the_whole_input(fresh_caches):
    rng = random.Random(6)
    cases = [random_sparse_case(rng) for _ in range(40)]
    check_pieces(cases)
    check_pieces(cases)  # now from the tables


def test_pieces_shorter_than_the_order_and_empty_types(fresh_caches):
    """Empty node texts make empty or one-token pieces, so that a piece's
    n - 1 tokens ahead span several pieces; empty types fall back to the
    adjacent label."""
    sg = make_subgraph(["a", "", " ", "b c"], types=["", "", "T", ""], labels=["", "x", ""])
    pieces = [piece_tokens(kind, name, first) for kind, name, first in (
        (None, "P", True), (None, "", False), ("", "a", True), ("x", "", False),
        ("T", " ", False), ("", "b c", False))]
    assert pieces == [("CLS", "p"), ("SEP",), ("a",), ("-", "x"), ("-", "t"), ("-", "b", "c")]
    assert ranker_input_tokens(("P", ""), sg) == [token for piece in pieces for token in piece]
    check_pieces([(("P", ""), sg)])


def test_piecewise_slots_within_tiny_bounds(tiny_caches):
    rng = random.Random(7)
    check_pieces([random_sparse_case(rng) for _ in range(30)], orders=range(1, 6))
    assert 0 < len(models._piece_slots) <= 5


def test_kept_entries_share_their_slot_ints_and_ahead_tuples(fresh_caches):
    """A kept piece holds no slot int or ahead tuple of its own: its slots
    are items of one tuple of every slot, and equal aheads are one tuple."""
    rng = random.Random(10)
    check_pieces([random_sparse_case(rng) for _ in range(30)], orders=range(1, 5))
    assert models._piece_slots
    aheads = {}
    for slots, ahead in models._piece_slots.values():
        assert all(slot is models._SLOT_INTS[slot] for slot in slots)
        assert aheads.setdefault(ahead, ahead) is ahead


def test_full_tables_keep_their_first_keys(tiny_caches):
    """A full table takes no new key and keeps the entries it took first,
    and what is read through it stays that of the uncached definitions."""
    rng = random.Random(9)
    cases = [random_sparse_case(rng) for _ in range(30)]

    def tables():
        return {"tokens": verbalize_module._tokens, "pieces": models._piece_slots}

    check_pieces(cases[:4], orders=range(1, 5))
    first = {name: dict(table) for name, table in tables().items()}
    assert len(first["tokens"]) == 3
    assert len(first["pieces"]) == 5
    check_pieces(cases, orders=range(1, 5))
    check_tokens(cases)
    check_slots([random_tokens(rng) for _ in range(20)])
    for name, table in tables().items():
        assert list(table) == list(first[name])
        assert all(table[key] is value for key, value in first[name].items())


def test_piecewise_slots_under_threads(tiny_caches):
    rng = random.Random(8)
    cases = [random_sparse_case(rng) for _ in range(20)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda _: check_pieces(cases, orders=range(1, 5)), range(8),
                          timeout=120))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n", [2, 3])
def test_hashed_matrix_counts_the_slots_of_the_tokens(fresh_caches, artifacts, n):
    """On the golden world's candidates, one row per path equal to the
    bincount of the slots of its whole token list."""
    rows = 0
    for line in (artifacts / "candidates.jsonl").read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        pair = (row["e1"], row["e2"])
        subgraphs = [read_fields(MetapathSubgraph, d) for d in row["subgraphs"]]
        if not subgraphs:
            continue
        expected = np.stack([
            np.bincount(hashed_slots(ranker_input_tokens(pair, sg), n, DEFAULT_HASH_DIM),
                        minlength=DEFAULT_HASH_DIM) for sg in subgraphs])
        assert np.array_equal(_hashed_matrix(n, pair, subgraphs), expected)
        rows += len(subgraphs)
    assert rows
