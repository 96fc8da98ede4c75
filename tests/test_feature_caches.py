"""Cached ranker tokens and n-gram slots against their uncached definitions."""

from __future__ import annotations

import importlib
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import make_subgraph
from kgcausal.ltr import ngram
from kgcausal.ltr.models import ranker_input_tokens
from kgcausal.ltr.ngram import hashed_slots
from kgcausal.util import stable_hash
from kgcausal.verbalize import encode_ranker_input, tokenize

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


def random_tokens(rng):
    return [rng.choice(WORDS).lower() for _ in range(rng.randint(0, 12))]


@pytest.fixture
def fresh_caches(monkeypatch):
    monkeypatch.setattr(verbalize_module, "_words_cache", {})
    monkeypatch.setattr(ngram, "_slot_tables", {})


@pytest.fixture
def tiny_caches(monkeypatch, fresh_caches):
    """Bounds of a few entries, so that the caches are emptied many times."""
    monkeypatch.setattr(verbalize_module, "_WORDS_LIMIT", 3)
    monkeypatch.setattr(ngram, "_SLOTS_LIMIT", 5)


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
    check_slots(token_lists)  # now from the tables


def test_counts_sum_to_the_ngram_count(fresh_caches):
    slots = hashed_slots(["a", "b", "c", "d"], n=4, hash_dim=7)
    assert len(slots) == 4 + 3 + 2 + 1
    assert slots == hashed_slots(("a", "b", "c", "d"), n=4, hash_dim=7)


def test_caches_stay_within_their_bounds(tiny_caches):
    rng = random.Random(3)
    check_tokens([random_case(rng) for _ in range(100)])
    check_slots([random_tokens(rng) for _ in range(40)])
    assert 0 < len(verbalize_module._words_cache) <= 3
    assert set(ngram._slot_tables) == set(HASH_DIMS)
    assert all(0 < len(table) <= 5 for table in ngram._slot_tables.values())


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
