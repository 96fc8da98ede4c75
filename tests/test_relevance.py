"""Relevance estimation and ranked-dataset emission tests."""

from __future__ import annotations

import json
import math

import pytest

from conftest import FakeBackend, make_subgraph
from kgcausal.errors import BackendUnavailable
from kgcausal.kg import EdgeRecord, KnowledgeGraph, NodeRecord
from kgcausal.llm import Completion, MockOracle, MockOracleConfig, map_pairs
from kgcausal.relevance import (
    PairInstance,
    build_sre_prompt,
    candidate_subgraphs,
    parse_ranked_record,
    rank_pair,
    score_subgraph,
)


@pytest.fixture
def drug_instance():
    return PairInstance(
        qid="1414",
        e1="dihydrotachysterol",
        e2="hypercalcemia",
        context=("Severe hypercalcemia in a patient treated for hypoparathyroidism "
                 "with dihydrotachysterol."),
        groundtruth="causal",
    )


class TestBuildSrePrompt:
    def test_contains_pair_block_and_hyphen_paths(self, drug_instance, fgf6_path):
        prompt = build_sre_prompt(drug_instance, fgf6_path)
        assert "[Pair]:\ndihydrotachysterol and hypercalcemia" in prompt
        assert "[Relation Paths]: FGF6 - tendon - SDRDL - FGFR2 - prostate cancer" in prompt
        assert prompt.endswith("[Relation]: ")

    def test_empty_context_still_valid(self, fgf6_path):
        inst = PairInstance(qid="1", e1="a", e2="b", context="", groundtruth="causal")
        prompt = build_sre_prompt(inst, fgf6_path)
        assert "[Textual context]:\n\n" in prompt


class TestScoreSubgraph:
    def test_correct_prediction(self, drug_instance, fgf6_path):
        backend = FakeBackend([FakeBackend.single("causal", p=0.8)])
        relscore, probscore, relevant = score_subgraph(drug_instance, fgf6_path, backend)
        assert relscore == pytest.approx(1.8)
        assert relevant == "1"
        assert probscore == pytest.approx(math.log(0.8))
        entry, = rank_pair(drug_instance, [fgf6_path], backend).metapaths
        assert (entry.pathid, entry.relscore, entry.probscore, entry.relevant) \
            == (1, relscore, probscore, relevant)
        assert entry.stops == "FGF6 - tendon - SDRDL - FGFR2 - prostate cancer"
        assert entry.reltypes == "express - express - regulate - associate"
        assert entry.nodelabels == "Gene - anatomy - gene - gene - disease"

    def test_boundary_confidence(self, drug_instance, fgf6_path):
        backend = FakeBackend([FakeBackend.single("causal", p=1.0)])
        relscore, _, _ = score_subgraph(drug_instance, fgf6_path, backend)
        assert relscore == pytest.approx(2.0)
        backend = FakeBackend([FakeBackend.single("non-causal", p=1.0)])
        relscore, _, relevant = score_subgraph(drug_instance, fgf6_path, backend)
        assert relscore == pytest.approx(0.0)
        assert relevant == "0"

    def test_unparseable_scores_midpoint(self, drug_instance, fgf6_path):
        backend = FakeBackend([FakeBackend.single("no idea")])
        assert score_subgraph(drug_instance, fgf6_path, backend) == (1.0, None, "0")

    @pytest.mark.parametrize("logprob, relscore", [(-0.1, 1.0 + math.exp(-0.1)),
                                                   (-800.0, 1.0)], ids=["-0.1", "-800"])
    def test_probscore_is_the_raw_mean_logprob(self, drug_instance, fgf6_path,
                                               logprob, relscore):
        """Two tokens overlap the label; exp(-800) underflows to p = 0, and
        the label that parsed still carries its mean."""
        tokens = (("cau", logprob), ("sal", logprob), (".", -3.0))
        backend = FakeBackend([Completion(text="causal.", tokens=tokens, backend_id="fake")])
        assert score_subgraph(drug_instance, fgf6_path, backend) == (relscore, logprob, "1")


class TestRankPair:
    def _three_paths(self):
        return [make_subgraph(["a", f"m{i}", "b"]) for i in range(3)]

    def test_argsort_descending(self, drug_instance):
        # causal truth: causal/0.8 -> 1.8, non-causal/0.7 -> 0.3, causal/0.2 -> 1.2
        backend = FakeBackend([
            FakeBackend.single("causal", p=0.8),
            FakeBackend.single("non-causal", p=0.7),
            FakeBackend.single("causal", p=0.2),
        ])
        record = rank_pair(drug_instance, self._three_paths(), backend)
        assert [m.relscore for m in record.metapaths] == pytest.approx([1.8, 1.2, 0.3])
        assert [m.stops for m in record.metapaths] == [
            "a - m0 - b", "a - m2 - b", "a - m1 - b"]
        assert [m.pathid for m in record.metapaths] == [1, 2, 3]
        assert [m.relevant for m in record.metapaths] == ["1", "1", "0"]
        assert record.groundtruth == "1"

    def test_equal_scores_keep_input_order(self, drug_instance):
        backend = FakeBackend([FakeBackend.single("causal", p=0.5)])
        record = rank_pair(drug_instance, self._three_paths(), backend)
        assert [m.stops for m in record.metapaths] == [
            "a - m0 - b", "a - m1 - b", "a - m2 - b"]

    def test_mock_motif_ranked_first(self):
        inst = PairInstance(qid="q", e1="a", e2="b", context="", groundtruth="causal")
        paths = [make_subgraph(["a", f"protein m{i}", "b"]) for i in range(4)]
        paths.insert(2, make_subgraph(["a", "stress hormone h1", "b"]))
        backend = MockOracle(MockOracleConfig(
            causal_motifs=(("stress hormone",),), base_confidence=0.9))
        record = rank_pair(inst, paths, backend)
        assert record.metapaths[0].stops == "a - stress hormone h1 - b"
        assert record.metapaths[0].relscore > 1.0
        assert all(m.relscore < 1.0 for m in record.metapaths[1:])

    def test_empty_candidates(self, drug_instance):
        with pytest.raises(ValueError, match="no candidate subgraphs"):
            rank_pair(drug_instance, [], FakeBackend([FakeBackend.single("causal")]))


def star_world(intermediates, pair_id):
    """One pair connected through the given number of length-2 paths."""
    a = NodeRecord(id=f"a{pair_id}", name=f"left {pair_id}", node_type="T")
    b = NodeRecord(id=f"b{pair_id}", name=f"right {pair_id}", node_type="T")
    nodes = [a, b]
    edges = []
    for i in range(intermediates):
        mid = NodeRecord(id=f"m{pair_id}_{i}", name=f"mid {pair_id} {i}", node_type="T")
        nodes.append(mid)
        edges.append(EdgeRecord(head=a.id, relation="r", tail=mid.id))
        edges.append(EdgeRecord(head=mid.id, relation="r", tail=b.id))
    return nodes, edges, a.name, b.name


class TestBuildRankedDataset:
    """A ranked dataset built as the extract and estimate commands build it:
    candidates per pair, then relevance estimation of the pairs that have any."""

    @pytest.fixture
    def world(self):
        nodes, edges, a0, b0 = star_world(3, 0)
        n1, e1, a1, b1 = star_world(12, 1)
        nodes += n1
        edges += e1
        kg = KnowledgeGraph(nodes, edges)
        instances = [
            PairInstance(qid="p0", e1=a0, e2=b0, context="", groundtruth="causal"),
            PairInstance(qid="p1", e1=a1, e2=b1, context="", groundtruth="non-causal"),
            PairInstance(qid="p2", e1="ghost x", e2=b0, context="", groundtruth="causal"),
        ]
        return kg, instances

    def backend(self):
        return MockOracle(MockOracleConfig(causal_motifs=(("never-present",),),
                                           base_confidence=0.9))

    @staticmethod
    def estimate(jobs, backend):
        """``rank_pair`` over the jobs, mapped as the estimate command maps them."""
        return map_pairs(lambda job: rank_pair(job[0], job[1], backend), jobs, backend,
                         qid=lambda job: job[0].qid)

    def jobs(self, world, **kwargs):
        kg, instances = world
        pairs = [(inst, candidate_subgraphs(inst, kg, seed=4, **kwargs)) for inst in instances]
        return [(inst, candidates) for inst, candidates in pairs if candidates]

    def test_skips_pairs_without_subgraphs(self, world):
        kg, instances = world
        candidates = [candidate_subgraphs(inst, kg, seed=4) for inst in instances]
        assert len(candidates) == 3
        assert [bool(c) for c in candidates] == [True, True, False]
        result = self.estimate(self.jobs(world), self.backend())
        assert len(result.records) == 2
        assert [r.qid for r in result.records] == ["p0", "p1"]

    def test_k_max_caps_candidates(self, world):
        kg, instances = world
        assert [len(candidate_subgraphs(inst, kg, k_max=10, seed=4)) for inst in instances] \
            == [3, 10, 0]
        result = self.estimate(self.jobs(world, k_max=10), self.backend())
        by_qid = {r.qid: r for r in result.records}
        assert len(by_qid["p1"].metapaths) == 10
        assert len(by_qid["p0"].metapaths) == 3

    def test_rerun_is_byte_identical(self, world):
        first = self.estimate(self.jobs(world), self.backend())
        second = self.estimate(self.jobs(world), self.backend())
        assert [json.dumps(r.to_dict()) for r in first.records] \
            == [json.dumps(r.to_dict()) for r in second.records]

    def test_backend_call_count_matches_scored_pairs(self, world):
        backend = self.backend()
        result = self.estimate(self.jobs(world, k_max=10), backend)
        assert backend.calls == 3 + 10
        assert result.backend_calls == backend.calls

    def test_calls_counted_as_made_when_a_record_fails_partway(self, world):
        class DiesOnSecondPath(MockOracle):
            seen = 0

            def complete(self, request):
                completion = super().complete(request)
                if "right 1" in request.prompt:
                    self.seen += 1
                    if self.seen == 2:
                        raise BackendUnavailable("down")
                return completion

        backend = DiesOnSecondPath(MockOracleConfig(causal_motifs=(("x",),)))
        result = self.estimate(self.jobs(world, k_max=10), backend)
        assert result.skipped_backend_error == 1
        assert result.backend_calls == backend.calls == 3 + 2

    def test_backend_failure_skips_pair(self, world):
        class FlakyBackend:
            parallelism = 1

            def __init__(self):
                self.inner = MockOracle(MockOracleConfig(
                    causal_motifs=(("x",),), base_confidence=0.9))

            def complete(self, request):
                if "right 1" in request.prompt:
                    raise BackendUnavailable("down")
                return self.inner.complete(request)

        result = self.estimate(self.jobs(world), FlakyBackend())
        assert len(result.records) == 1
        assert result.skipped_backend_error == 1
        assert [r.qid for r in result.records] == ["p0"]


class TestRecordSerialization:
    def test_round_trip_field_for_field(self):
        inst = PairInstance(qid="q7", e1="a", e2="b", context="ctx",
                            groundtruth="non-causal")
        backend = FakeBackend([
            FakeBackend.single("non-causal", p=0.6),
            FakeBackend.single("causal", p=0.9),
            FakeBackend.single("no label at all"),
        ])
        paths = [make_subgraph(["a", f"m{i}", "b"]) for i in range(3)]
        record = rank_pair(inst, paths, backend)
        line = json.dumps(record.to_dict(), ensure_ascii=False)
        parsed = parse_ranked_record(json.loads(line))
        assert parsed == record
        assert json.dumps(parsed.to_dict(), ensure_ascii=False) == line

    def test_relevance_invariants_on_emitted_records(self):
        inst = PairInstance(qid="q", e1="a", e2="b", context="", groundtruth="causal")
        backend = FakeBackend([
            FakeBackend.single("causal", p=0.9),
            FakeBackend.single("non-causal", p=0.4),
            FakeBackend.single("???"),
        ])
        paths = [make_subgraph(["a", f"m{i}", "b"]) for i in range(3)]
        record = rank_pair(inst, paths, backend)
        scores = [m.relscore for m in record.metapaths]
        assert scores == sorted(scores, reverse=True)
        for m in record.metapaths:
            assert 0.0 <= m.relscore <= 2.0
            if m.probscore is not None and m.relscore != 1.0:
                assert (m.relevant == "1") == (m.relscore > 1.0)

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            PairInstance(qid="q", e1="same", e2="same", context="", groundtruth="causal")
        with pytest.raises(ValueError):
            PairInstance(qid="q", e1="a", e2="b", context="", groundtruth="maybe")
