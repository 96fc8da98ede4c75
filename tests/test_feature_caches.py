"""Ranker-input pieces and their n-gram slots, read through the tables of a
fit or a model, against their definitions without tables."""

from __future__ import annotations

import dataclasses
import gc
import json
import random
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import encode_ranker_input, make_subgraph
from kgcausal.kg import MetapathSubgraph, enumerate_subgraphs
from kgcausal.llm import MockOracle
from kgcausal.ltr import models
from kgcausal.ltr.models import (TrainConfig, _hashed_matrix, _path_slots, ranker_input_tokens,
                                 score_subgraphs, train_gbdt_ranker)
from kgcausal.ltr.ngram import DEFAULT_HASH_DIM, MAX_ORDER, UNK, NgramLM, hashed_slots
from kgcausal.relevance import rank_pair
from kgcausal.synthetic import make_planted_world
from kgcausal.util import read_fields, stable_hash
from kgcausal.verbalize import CLS, SEP, piece_tokens, tokenize

WORDS = ["FGF6", "fgf6", "Prostate", "cancer", "CLS", "SEP", "cls", "Sep", "-", "x", "TNF-a"]
HASH_DIMS = (7, 256, 1024)


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


@pytest.fixture(scope="module")
def planted():
    """Ranked records of a small planted world, the order-2 LM a GBDT fit
    reads (only its order), and a GBDT model fitted on them."""
    world = make_planted_world(n_pairs=16, seed=3)
    backend = MockOracle(world.mock_config)
    records = [rank_pair(inst, enumerate_subgraphs(world.kg, (inst.e1, inst.e2), 4), backend)
               for inst in world.instances]
    lm = NgramLM(n=2, d=1, seed=0, vocab={UNK: 0}, embeddings=np.zeros((1, 1)))
    return records, lm, train_gbdt_ranker(records, lm, TrainConfig(gbdt_rounds=3))


def check_tokens(cases):
    for pair, subgraph in cases:
        assert ranker_input_tokens(pair, subgraph) == oracle_tokens(pair, subgraph)


def check_slots(token_lists):
    for tokens in token_lists:
        for n in range(1, 5):
            for hash_dim in HASH_DIMS:
                assert hashed_slots(tokens, n, hash_dim) == oracle_slots(tokens, n, hash_dim)


def test_tokens_equal_the_uncached_encoding():
    rng = random.Random(1)
    check_tokens([random_case(rng) for _ in range(300)])


def test_tokens_keep_markers_and_fill_empty_types_with_labels():
    sg = make_subgraph(["CLS Gene", "b SEP"], types=["", "Disease"], labels=["Binds"])
    assert ranker_input_tokens(("A", "b c"), sg) == [
        "CLS", "a", "b", "c", "SEP", "binds", "CLS", "gene", "-", "disease", "b", "SEP"]


def test_tokens_are_a_fresh_list_each_call():
    sg = make_subgraph(["x y", "z"])
    first = ranker_input_tokens(("P", "Q"), sg)
    expected = list(first)
    first.append("extra")
    first[1] = "changed"
    second = ranker_input_tokens(("P", "Q"), sg)
    assert second == expected
    assert second is not first


def test_slots_equal_the_per_ngram_hash():
    rng = random.Random(2)
    token_lists = [random_tokens(rng) for _ in range(100)]
    check_slots(token_lists)


def test_counts_sum_to_the_ngram_count():
    slots = hashed_slots(["a", "b", "c", "d"], n=4, hash_dim=7)
    assert len(slots) == 4 + 3 + 2 + 1
    assert slots == hashed_slots(("a", "b", "c", "d"), n=4, hash_dim=7)


def test_caches_under_threads():
    """Tokens, slots and pieces read by 8 threads at once, the pieces through
    one table that they share."""
    rng = random.Random(4)
    cases = [random_case(rng) for _ in range(60)]
    token_lists = [random_tokens(rng) for _ in range(20)]
    table = {}

    def work(_):
        check_tokens(cases)
        check_slots(token_lists)
        check_pieces(cases, table, orders=range(1, 4))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(work, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert table


def check_pieces(cases, table, orders=range(1, MAX_ORDER + 1)):
    """Piece by piece through ``table``, the slots of the whole input, in
    another order."""
    for pair, subgraph in cases:
        tokens = oracle_tokens(pair, subgraph)
        assert ranker_input_tokens(pair, subgraph) == tokens
        for n in orders:
            row, = _path_slots(n, pair, [subgraph], table)
            assert Counter(row) == Counter(oracle_slots(tokens, n, DEFAULT_HASH_DIM))


def test_slots_with_ahead_are_those_of_the_ngrams_starting_in_the_tokens():
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


def test_piecewise_slots_count_like_the_whole_input():
    rng = random.Random(6)
    cases = [random_sparse_case(rng) for _ in range(40)]
    table = {}
    check_pieces(cases, table)
    check_pieces(cases, table)  # now from the table


def test_pieces_shorter_than_the_order_and_empty_types():
    """Empty node texts make empty or one-token pieces, so that a piece's
    n - 1 tokens ahead span several pieces; empty types fall back to the
    adjacent label."""
    sg = make_subgraph(["a", "", " ", "b c"], types=["", "", "T", ""], labels=["", "x", ""])
    pieces = [piece_tokens(kind, name, first) for kind, name, first in (
        (None, "P", True), (None, "", False), ("", "a", True), ("x", "", False),
        ("T", " ", False), ("", "b c", False))]
    assert pieces == [("CLS", "p"), ("SEP",), ("a",), ("-", "x"), ("-", "t"), ("-", "b", "c")]
    assert ranker_input_tokens(("P", ""), sg) == [token for piece in pieces for token in piece]
    check_pieces([(("P", ""), sg)], {})


def test_a_fits_entries_share_their_slot_ints(planted, monkeypatch):
    """A fit reads every record through one table of its own, and an entry
    holds no slot int of its own: its slots are items of one tuple of every
    slot."""
    records, lm, _ = planted
    tables = []

    def hashed_matrix(n, pair, subgraphs, table):
        tables.append(table)
        return _hashed_matrix(n, pair, subgraphs, table)

    monkeypatch.setattr(models, "_hashed_matrix", hashed_matrix)
    train_gbdt_ranker(records, lm, TrainConfig(gbdt_rounds=1))
    table = tables[0]
    assert table and all(t is table for t in tables)
    for slots, _ in table.values():
        assert all(slot is models._SLOT_INTS[slot] for slot in slots)


def test_piecewise_slots_under_threads():
    """8 threads that read the same pieces through one table."""
    rng = random.Random(8)
    cases = [random_sparse_case(rng) for _ in range(20)]
    table = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda _: check_pieces(cases, table, orders=range(1, 5)), range(8),
                          timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert table


@pytest.mark.parametrize("n", [2, 3])
def test_hashed_matrix_counts_the_slots_of_the_tokens(artifacts, n):
    """On the golden world's candidates, read through one table, one row per
    path equal to the bincount of the slots of its whole token list."""
    table = {}
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
        assert np.array_equal(_hashed_matrix(n, pair, subgraphs, table), expected)
        rows += len(subgraphs)
    assert rows


def test_a_model_frees_its_pieces_with_itself(planted):
    """A GBDT model keeps the pieces it scores, here ones its fit never
    read, in a table of its own: once the model is dropped, traced memory is
    back at its level before the scoring, and two models that score the same
    paths share no entry."""
    _, _, fitted = planted
    rng = random.Random(11)
    paths = [(pair, [subgraph]) for pair, subgraph in (random_case(rng) for _ in range(300))]

    def fresh_model():
        return dataclasses.replace(fitted, gbdt=dataclasses.replace(fitted.gbdt))

    def score(model):
        return [score_subgraphs(model, pair, subgraphs) for pair, subgraphs in paths]

    score_subgraphs(fresh_model(), *paths[0])  # the imports of a first scoring
    model = fresh_model()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        score(model)
        kept = tracemalloc.get_traced_memory()[0] - before
        del model
        gc.collect()  # which empties the free lists that hold freed tuples
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept > 64 * 1024
    assert after - before < kept / 20

    one, two = fresh_model(), fresh_model()
    for got, want in zip(score(one), score(two)):
        assert np.array_equal(got, want)
    assert len(one.gbdt._pieces) > 100
    assert one.gbdt._pieces == two.gbdt._pieces
    assert not {id(v) for v in one.gbdt._pieces.values()} \
        & {id(v) for v in two.gbdt._pieces.values()}
