"""Verbalization and ranker-input encoding tests."""

from __future__ import annotations

import random

import pytest

from conftest import encode_ranker_input, make_subgraph
from kgcausal.kg import FORWARD, REVERSE
from kgcausal.verbalize import (
    CLS,
    SEP,
    FULL,
    HYPHEN,
    PLAIN_ARROWS,
    TYPED_ARROWS,
    tokenize,
    verbalize,
)


class TestVerbalize:
    def test_plain_arrows_drops_types_and_labels(self, fgf6_path):
        assert verbalize(fgf6_path, PLAIN_ARROWS) == (
            "FGF6 → tendon → SDRDL → FGFR2 → prostate cancer")

    def test_full_single_triple_with_prefix(self):
        sg = make_subgraph(["a", "b"], types=["ta", "tb"], labels=["r"])
        assert verbalize(sg, FULL) == "Relation paths between the pair: (ta a, r, tb b)"

    def test_full_orients_reverse_edges(self):
        sg = make_subgraph(["a", "b"], types=["ta", "tb"], labels=["r"],
                           directions=[REVERSE])
        assert verbalize(sg, FULL) == "Relation paths between the pair: (tb b, r, ta a)"

    def test_hyphen(self):
        sg = make_subgraph(["a", "b"])
        assert verbalize(sg, HYPHEN) == "a - b"

    def test_typed_arrows_carries_types_and_labels(self):
        sg = make_subgraph(["a", "x", "b"], types=["T1", "T2", "T3"],
                           labels=["r1", "r2"], directions=[FORWARD, REVERSE])
        assert verbalize(sg, TYPED_ARROWS) == (
            "T1 a →r1→ T2 x ←r2← T3 b")

    def test_unknown_variant_rejected(self):
        sg = make_subgraph(["a", "b"])
        with pytest.raises(ValueError, match="unknown verbalization variant 'prose'"):
            verbalize(sg, "prose")

    def test_full_style_injective_on_distinct_paths(self):
        rng = random.Random(5)
        names = ["alpha", "beta", "gamma", "delta", "epsilon"]
        types = ["Gene", "Disease", "Compound"]
        labels = ["binds", "causes", "treats"]
        seen = {}
        for _ in range(300):
            n = rng.randint(2, 4)
            sg = make_subgraph(
                rng.sample(names, n),
                types=[rng.choice(types) for _ in range(n)],
                labels=[rng.choice(labels) for _ in range(n - 1)],
            )
            key = (sg.node_names, sg.node_types, sg.edge_labels)
            text = verbalize(sg, FULL)
            if key in seen:
                assert seen[key] == text
            else:
                assert text not in set(seen.values())
                seen[key] = text

    def test_hyphen_round_trip(self):
        sg = make_subgraph(["FGF6", "prostate cancer", "IL6"])
        assert verbalize(sg, HYPHEN).split(" - ") == list(sg.node_names)


class TestEncodeRankerInput:
    def test_typed_encoding_matches_reference_layout(self, fgf6_path):
        tokens = encode_ranker_input(("FGF6", "prostate cancer"), fgf6_path)
        assert " ".join(tokens) == (
            "CLS FGF6 prostate cancer SEP Gene FGF6 - anatomy tendon - gene SDRDL "
            "- gene FGFR2 - disease prostate cancer")

    def test_typeless_path_substitutes_relation_labels(self):
        sg = make_subgraph(["a", "x", "b"], types=["", "", ""], labels=["r1", "r2"])
        tokens = encode_ranker_input(("a", "b"), sg)
        assert " ".join(tokens) == "CLS a b SEP r1 a - r2 x - r2 b"

    def test_token_count_structure(self, fgf6_path):
        tokens = encode_ranker_input(("FGF6", "prostate cancer"), fgf6_path)
        pair_tokens = len("FGF6".split()) + len("prostate cancer".split())
        per_node = sum(len(t.split()) + len(n.split())
                       for t, n in zip(fgf6_path.node_types, fgf6_path.node_names))
        separators = len(fgf6_path.node_names) - 1
        assert len(tokens) == 2 + pair_tokens + per_node + separators

    def test_grows_linearly_with_path_length(self):
        lengths = []
        for n in range(2, 7):
            sg = make_subgraph([f"v{i}" for i in range(n)],
                               types=["T"] * n, labels=["r"] * (n - 1))
            lengths.append(len(encode_ranker_input(("a", "b"), sg)))
        deltas = {b - a for a, b in zip(lengths, lengths[1:])}
        assert deltas == {3}


class TestTokenize:
    def test_lowercases_but_preserves_markers(self):
        assert tokenize("CLS FGF6 Prostate Cancer SEP") == [
            CLS, "fgf6", "prostate", "cancer", SEP]
