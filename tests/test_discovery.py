"""Zero-shot discovery, baseline, and evaluation tests."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from conftest import FakeBackend, make_subgraph
from kgcausal import discovery
from kgcausal.discovery import (
    CausalPrediction,
    DiscoveryConfig,
    aggregate_graph,
    build_discovery_prompt,
    classify_pair,
    evaluate_classification,
    f1_score,
    hamming_distance,
    metrics_from_counts,
)
from kgcausal.errors import BackendUnavailable
from kgcausal.llm import PATH_BLOCK_MARKER, MockOracle, map_pairs
from kgcausal.ltr.models import GbdtEnsemble, RankerModel, rank_subgraphs, score_subgraphs
from kgcausal.relevance import PairInstance
from kgcausal.synthetic import make_planted_world
from kgcausal.verbalize import TYPED_ARROWS, verbalize
from test_models import handcrafted_lm


class TestSelectTopK:
    """The top k paths that classify_pair puts into the prompt."""

    PAIR = ("a", "b")

    def _subgraphs(self, count):
        return [make_subgraph(["a", f"m{i}", "b"]) for i in range(count)]

    def _used(self, ranker, subgraphs, k, lm=None):
        inst = PairInstance(qid="1", e1="a", e2="b", context="", groundtruth="causal")
        backend = FakeBackend([FakeBackend.single("causal")])
        prediction = classify_pair(inst, None, ranker, backend, config=DiscoveryConfig(k=k),
                                   lm=lm, candidates=subgraphs)
        return list(prediction.subgraphs_used)

    def _by_score(self, ranker, subgraphs):
        scores = score_subgraphs(ranker, self.PAIR, subgraphs)
        return [verbalize(subgraphs[i]) for i in sorted(range(len(subgraphs)),
                                                        key=lambda i: -scores[i])]

    def test_argmax(self):
        ranker = RankerModel(kind="random", seed=4)
        subgraphs = self._subgraphs(3)
        best = int(np.argmax(score_subgraphs(ranker, self.PAIR, subgraphs)))
        assert self._used(ranker, subgraphs, 1) == [verbalize(subgraphs[best])]

    def test_k_larger_than_list(self):
        ranker = RankerModel(kind="random", seed=4)
        subgraphs = self._subgraphs(3)
        assert self._used(ranker, subgraphs, 10) == self._by_score(ranker, subgraphs)

    def test_ties_stable(self):
        subgraphs = self._subgraphs(3)
        ranked = rank_subgraphs(constant_ranker(), self.PAIR, subgraphs, handcrafted_lm())
        assert [sg for sg, _ in ranked] == subgraphs

    def test_empty(self):
        assert self._used(RankerModel(kind="random"), [], 3) == []

    def test_prefix_property(self):
        subgraphs = self._subgraphs(4)
        lm = handcrafted_lm()
        full = [verbalize(sg) for sg, _ in
                rank_subgraphs(constant_ranker(), self.PAIR, subgraphs, lm)]
        for k in range(1, 5):
            assert self._used(constant_ranker(), subgraphs, k, lm) == full[:k]

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            DiscoveryConfig(k=k)


def constant_ranker():
    """A GBDT ranker without trees: every path scores its base score."""
    return RankerModel(kind="gbdt", gbdt=GbdtEnsemble(base_score=0.5, learning_rate=0.1))


class TestBuildDiscoveryPrompt:
    def test_contains_path_and_closing_cue(self, fgf6_path):
        inst = PairInstance(qid="1", e1="FGF6", e2="prostate cancer",
                            context="FGF6 contributes to the growth of prostate cancer",
                            groundtruth="causal")
        prompt = build_discovery_prompt(inst, [verbalize(fgf6_path)])
        assert "FGF6 → tendon → SDRDL → FGFR2 → prostate cancer" in prompt
        assert prompt.endswith("The relation between FGF6 and prostate cancer is")

    def test_empty_block_for_no_subgraphs(self, fgf6_path):
        inst = PairInstance(qid="1", e1="FGF6", e2="prostate cancer", context="ctx",
                            groundtruth="causal")
        with_path = build_discovery_prompt(inst, [verbalize(fgf6_path)])
        without = build_discovery_prompt(inst, [])
        assert without == with_path.replace(
            "FGF6 → tendon → SDRDL → FGFR2 → prostate cancer", "")

    def test_two_paths_keep_rank_order(self):
        inst = PairInstance(qid="1", e1="a", e2="b", context="", groundtruth="causal")
        first = make_subgraph(["a", "x", "b"])
        second = make_subgraph(["a", "y", "b"])
        prompt = build_discovery_prompt(inst, [verbalize(first), verbalize(second)])
        assert prompt.index("a → x → b") < prompt.index("a → y → b")


class TestClassifyPair:
    def test_planted_motif_predicts_causal(self):
        world = make_planted_world(n_pairs=4, flip_rate=0.0)
        backend = MockOracle(world.mock_config)
        ranker = RankerModel(kind="random", seed=0)
        inst = world.instances[0]
        subs = [make_subgraph([inst.e1, "stress hormone h1", inst.e2])]
        prediction = classify_pair(inst, None, ranker, backend,
                                   config=DiscoveryConfig(k=1), candidates=subs)
        assert prediction.predicted == "causal"
        assert prediction.p == pytest.approx(world.mock_config.base_confidence)
        assert prediction.subgraphs_used

    def test_pair_missing_from_kg_falls_back_to_bare_prompt(self):
        world = make_planted_world(n_pairs=4, flip_rate=0.0)
        backend = MockOracle(world.mock_config)
        inst = PairInstance(qid="zz", e1="unknown thing", e2="other thing",
                            context="", groundtruth="non-causal")
        prediction = classify_pair(inst, world.kg, RankerModel(kind="random"), backend,
                                   config=DiscoveryConfig(k=1))
        assert prediction.predicted == "non-causal"
        assert prediction.subgraphs_used == ()

    def test_pair_on_one_node_prompts_bare(self, hetionet_style_kg):
        prompts = []

        class Recording(FakeBackend):
            def complete(self, request):
                prompts.append(request.prompt)
                return super().complete(request)

        inst = PairInstance(qid="1", e1="Aspirin", e2="aspirin", context="",
                            groundtruth="non-causal")
        prediction = classify_pair(inst, hetionet_style_kg, RankerModel(kind="random"),
                                   Recording([FakeBackend.single("non-causal")]))
        assert prompts == [build_discovery_prompt(inst, [])]
        assert prediction.subgraphs_used == ()

    def test_prompt_path_block_is_subgraphs_used(self):
        """The paths in the prompt are the very lines the prediction
        reports, in rank order."""
        prompts = []

        class Recording(FakeBackend):
            def complete(self, request):
                prompts.append(request.prompt)
                return super().complete(request)

        inst = PairInstance(qid="1", e1="a", e2="b", context="", groundtruth="causal")
        subs = [make_subgraph(["a", f"m{i}", "b"], types=["T", "M", "T"], labels=["r", "s"])
                for i in range(3)]
        prediction = classify_pair(inst, None, RankerModel(kind="random"),
                                   Recording([FakeBackend.single("causal")]),
                                   config=DiscoveryConfig(k=2, style=TYPED_ARROWS),
                                   candidates=subs)
        block = prompts[0].split(f"{PATH_BLOCK_MARKER}\n")[1].split("\n\n")[0]
        assert len(prediction.subgraphs_used) == 2
        assert block.split("\n") == list(prediction.subgraphs_used)

    def test_unparseable_text_yields_none(self):
        inst = PairInstance(qid="1", e1="a", e2="b", context="", groundtruth="causal")
        backend = FakeBackend([FakeBackend.single("gibberish output")])
        prediction = classify_pair(inst, None, None, backend,
                                   config=DiscoveryConfig(k=1), candidates=[])
        assert prediction.predicted is None
        assert prediction.p == 0.0


def discover(instances, kg, ranker, backend, **kwargs):
    """``classify_pair`` over the instances, mapped as the discover command
    maps them."""
    return map_pairs(lambda inst: classify_pair(inst, kg, ranker, backend, **kwargs),
                     instances, backend, qid=lambda inst: inst.qid)


class TestClassifyPairs:
    def test_parallel_matches_serial_in_input_order(self):
        world = make_planted_world(n_pairs=12, flip_rate=0.1, seed=3)
        ranker = RankerModel(kind="random", seed=2)
        config = DiscoveryConfig(k=2)
        serial = [classify_pair(inst, world.kg, ranker, MockOracle(world.mock_config),
                                config=config) for inst in world.instances]
        backend = MockOracle(world.mock_config)
        backend.parallelism = 3
        result = discover(world.instances, world.kg, ranker, backend, config=config)
        assert result.records == serial
        assert result.skipped_backend_error == 0
        assert result.backend_calls == backend.calls == len(world.instances)

    def test_no_ranker_enumerates_nothing(self, monkeypatch):
        world = make_planted_world(n_pairs=20, flip_rate=0.1, seed=3)
        bare = [classify_pair(inst, None, None, MockOracle(world.mock_config), candidates=[])
                for inst in world.instances]
        searches = []
        monkeypatch.setattr(discovery, "enumerate_subgraphs",
                            lambda *args, **kwargs: searches.append(args) or [])
        result = discover(world.instances, world.kg, None, MockOracle(world.mock_config))
        assert searches == []
        assert result.records == bare

    def test_first_error_cancels_pending_pairs(self):
        """An error that is not a backend failure still aborts the stage."""
        world = make_planted_world(n_pairs=40, flip_rate=0.0)

        class BrokenBackend:
            parallelism = 2

            def __init__(self):
                self.calls = 0
                self.lock = threading.Lock()

            def complete(self, request):
                with self.lock:
                    self.calls += 1
                time.sleep(0.02)
                raise RuntimeError("broken")

        backend = BrokenBackend()
        with pytest.raises(RuntimeError, match="broken"):
            discover(world.instances, world.kg, None, backend)
        assert backend.calls < 10

    def test_backend_failure_skips_and_counts_the_pair(self, caplog):
        world = make_planted_world(n_pairs=6, flip_rate=0.0, seed=3)
        down = BackendUnavailable("down")
        backend = FakeBackend([FakeBackend.single("causal"), down,
                               FakeBackend.single("non-causal")])
        result = discover(world.instances, world.kg, None, backend)
        qids = [inst.qid for inst in world.instances]
        assert [p.qid for p in result.records] == [q for i, q in enumerate(qids) if i % 3 != 1]
        assert [p.predicted for p in result.records] == ["causal", "non-causal"] * 2
        assert result.skipped_backend_error == 2
        assert result.backend_calls == backend.calls == 6
        assert f"skipping {qids[1]}: down" in caplog.text


class TestBaselineRank:
    """The random and similarity baselines are rankers of that kind."""

    def _subs(self, n=3):
        return [make_subgraph(["a", f"m{i}", "b"]) for i in range(n)]

    def _ranked(self, kind, pair, subs, seed=0, lm=None):
        return [sg for sg, _ in rank_subgraphs(RankerModel(kind=kind, seed=seed), pair,
                                               subs, lm)]

    def test_random_deterministic(self):
        subs = self._subs(6)
        one = self._ranked("random", ("a", "b"), subs, seed=4)
        two = self._ranked("random", ("a", "b"), subs, seed=4)
        assert [id(s) for s in one] == [id(s) for s in two]

    def test_similarity_puts_pair_identical_first(self):
        lm = handcrafted_lm(extra_tokens=("unrelated", "stuff"))
        identical = make_subgraph(["left", "right"])
        other = make_subgraph(["unrelated", "stuff"])
        ranked = self._ranked("similarity", ("left", "right"), [other, identical], lm=lm)
        assert ranked[0] is identical

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            self._ranked("oracle", ("a", "b"), self._subs())


def preds(labels):
    return [CausalPrediction(qid=f"q{i}", predicted=lab, p=0.5, subgraphs_used=(),
                             backend_id="fake")
            for i, lab in enumerate(labels)]


def golds(labels):
    return [PairInstance(qid=f"q{i}", e1=f"a{i}", e2=f"b{i}", context="", groundtruth=lab)
            for i, lab in enumerate(labels)]


class TestEvaluateClassification:
    def test_f1_arithmetic_first_reference_row(self):
        # 14 of 38 causal pairs found, no false alarms
        metrics = metrics_from_counts(tp=14, fp=0, fn=24, tn=10)
        assert metrics.precision == pytest.approx(100.0)
        assert metrics.recall == pytest.approx(36.84, abs=0.01)
        assert metrics.f1 == pytest.approx(53.85, abs=0.01)

    def test_f1_arithmetic_second_reference_row(self):
        metrics = metrics_from_counts(tp=11, fp=8, fn=1, tn=3)
        assert metrics.precision == pytest.approx(57.89, abs=0.01)
        assert metrics.recall == pytest.approx(91.67, abs=0.01)
        assert metrics.f1 == pytest.approx(70.97, abs=0.01)

    def test_f1_helper_on_percent_scale(self):
        assert f1_score(100.0, 36.84) == pytest.approx(53.85, abs=0.01)
        assert f1_score(57.89, 91.67) == pytest.approx(70.97, abs=0.01)
        assert f1_score(0.0, 0.0) == 0.0

    def test_all_correct(self):
        labels = ["causal", "non-causal", "causal"]
        metrics = evaluate_classification(preds(labels), golds(labels))
        assert (metrics.precision, metrics.recall, metrics.f1) == (100.0, 100.0, 100.0)

    def test_unparseable_counts_wrong_both_ways(self):
        metrics = evaluate_classification(preds([None, None]),
                                          golds(["causal", "non-causal"]))
        assert metrics.fn == 1
        assert metrics.fp == 1
        assert metrics.tp == 0

    def test_qid_mismatch(self):
        other = PairInstance(qid="other", e1="a", e2="b", context="", groundtruth="causal")
        with pytest.raises(ValueError, match="not in the gold file: 'q0'"):
            evaluate_classification(preds(["causal"]), [other])

    def test_missing_predictions_count_wrong_and_are_reported(self):
        labels = ["causal", "non-causal", "causal", "non-causal"]
        metrics = evaluate_classification(preds(labels[:2]), golds(labels))
        assert (metrics.tp, metrics.fp, metrics.fn, metrics.tn) == (1, 1, 1, 1)
        assert metrics.missing == 2
        assert evaluate_classification(preds(labels), golds(labels)).missing == 0

    def test_permutation_invariance(self):
        labels = ["causal", "non-causal", "causal", "causal", "non-causal"]
        predictions = preds(["causal", "causal", "non-causal", "causal", "non-causal"])
        gold = golds(labels)
        base = evaluate_classification(predictions, gold)
        shuffled = evaluate_classification(list(reversed(predictions)), gold)
        assert base == shuffled

    def test_degenerate_precision_flagged(self):
        metrics = evaluate_classification(preds(["non-causal", "non-causal"]),
                                          golds(["non-causal", "non-causal"]))
        assert "precision" in metrics.degenerate
        assert "recall" in metrics.degenerate


class TestGraphMetrics:
    def test_reference_normalization(self):
        gold = np.zeros((11, 11), dtype=int)
        adj = np.zeros((11, 11), dtype=int)
        flipped = 0
        for i in range(11):
            for j in range(11):
                if i != j and flipped < 24:
                    adj[i, j] = 1
                    flipped += 1
        hd, nhd = hamming_distance(adj, gold)
        assert hd == 24
        assert nhd == pytest.approx(0.198, abs=0.001)

    def test_identical(self):
        adj = np.zeros((3, 3), dtype=int)
        assert hamming_distance(adj, adj) == (0, 0.0)

    def test_two_by_two_single_difference(self):
        a = np.array([[0, 1], [0, 0]])
        b = np.zeros((2, 2), dtype=int)
        assert hamming_distance(a, b) == (1, 0.25)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2, size=(5, 5))
        b = rng.integers(0, 2, size=(5, 5))
        np.fill_diagonal(a, 0)
        np.fill_diagonal(b, 0)
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert 0.0 <= hamming_distance(a, b)[1] <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            hamming_distance(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            hamming_distance(np.eye(3), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            hamming_distance(np.full((2, 2), 2), np.zeros((2, 2)))

    def test_aggregate_graph(self):
        variables = ["x", "y", "z"]
        labels = {("x", "y"): "causal", ("y", "x"): "non-causal",
                  ("z", "x"): "causal", ("x", "x"): "causal"}
        adj = aggregate_graph(labels, variables)
        expected = np.array([[0, 1, 0], [0, 0, 0], [1, 0, 0]])
        assert np.array_equal(adj, expected)
