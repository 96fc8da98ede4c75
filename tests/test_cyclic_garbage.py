"""Enumeration, discovery and GBDT training leave no cyclic garbage.

Everything one of these calls allocates is freed by reference counting as
it returns, so the cyclic garbage collector finds nothing after it.  A
nested function that calls itself would break this: its closure refers to
the function, and that cycle keeps the call's state alive until the
collector runs.
"""

from __future__ import annotations

import gc

import numpy as np
# np.unique imports numpy.ma on first use, and that import leaves cyclic
# garbage once per process.
import numpy.ma  # noqa: F401
import pytest

from kgcausal.discovery import DiscoveryConfig, classify_pair
from kgcausal.kg import EdgeRecord, KnowledgeGraph, NodeRecord, enumerate_subgraphs
from kgcausal.llm import MockOracle
from kgcausal.ltr.models import TrainConfig, train_gbdt_ranker
from kgcausal.ltr.ngram import UNK, NgramLM
from kgcausal.relevance import rank_pair
from kgcausal.synthetic import make_planted_world
from test_kg import doubled_chain


def cyclic_garbage(call) -> int:
    """The number of unreachable objects the cyclic collector finds after
    ``call()`` runs with the collector off."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def hub_graph() -> KnowledgeGraph:
    """Six variables, each linked to the same three hubs, with leaves on the
    hubs: every variable pair is joined by three 2-hop paths."""
    variables = [NodeRecord(id=f"v{i}", name=f"V{i}", node_type="Compound") for i in range(6)]
    hubs = [NodeRecord(id=f"h{i}", name=f"H{i}", node_type="Protein") for i in range(3)]
    leaves = [NodeRecord(id=f"l{i}", name=f"L{i}", node_type="Anatomy") for i in range(12)]
    edges = [EdgeRecord(head=v.id, relation="binds", tail=h.id) for v in variables for h in hubs]
    edges += [EdgeRecord(head=h.id, relation="expresses", tail=leaf.id)
              for h in hubs for leaf in leaves]
    return KnowledgeGraph(variables + hubs + leaves, edges)


@pytest.fixture(scope="module")
def planted():
    """Relevance records of a small planted world, its backend, and an LM
    that carries only the order a GBDT reads."""
    world = make_planted_world(n_pairs=8, seed=3)
    backend = MockOracle(world.mock_config)
    records = [rank_pair(inst, enumerate_subgraphs(world.kg, (inst.e1, inst.e2), 4), backend)
               for inst in world.instances]
    lm = NgramLM(n=2, d=1, seed=0, vocab={UNK: 0}, embeddings=np.zeros((1, 1)))
    return world, backend, records, lm


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("limit, count", [(None, 3), (2, 2)])
    def test_enumeration_over_a_hub_graph(self, limit, count):
        kg = hub_graph()
        found = []
        assert cyclic_garbage(lambda: found.extend(
            enumerate_subgraphs(kg, ("V0", "V1"), max_hops=4, limit=limit, seed=1))) == 0
        assert len(found) == count

    def test_enumeration_over_parallel_edges(self):
        kg = doubled_chain()
        found = []
        assert cyclic_garbage(lambda: found.extend(
            enumerate_subgraphs(kg, ("a", "b"), max_hops=3))) == 0
        assert len(found) == 8

    def test_gbdt_training(self, planted):
        _, _, records, lm = planted
        models = []
        assert cyclic_garbage(lambda: models.append(
            train_gbdt_ranker(records, lm, TrainConfig(gbdt_rounds=3)))) == 0
        assert any(len(tree.feature) > 1 for tree in models[0].gbdt.trees)

    def test_classify_pair_with_a_gbdt_model(self, planted):
        world, backend, records, lm = planted
        model = train_gbdt_ranker(records, lm, TrainConfig(gbdt_rounds=3))
        predictions = []
        assert cyclic_garbage(lambda: predictions.append(classify_pair(
            world.instances[0], world.kg, model, backend, DiscoveryConfig(k=2), lm))) == 0
        assert predictions[0].subgraphs_used
