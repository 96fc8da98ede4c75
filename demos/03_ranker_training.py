"""Training the four subgraph rankers and comparing their ranking quality.

Distills the backend's relevance estimates into standalone models: a
feedforward scorer over language-model embeddings trained with pointwise,
pairwise, and listwise objectives, plus gradient-boosted trees over hashed
n-gram counts.  Quality is measured against the relevance estimates on
held-out pairs.  Run with:  python demos/03_ranker_training.py
"""

import numpy as np

from kgcausal import MockOracle, enumerate_subgraphs, rank_pair
from kgcausal.ltr import (
    LISTNET,
    RANKNET,
    RMSE,
    TrainConfig,
    ndcg_at_k,
    ranker_input_tokens,
    recall_at_k,
    record_pair,
    record_subgraphs,
    score_subgraphs,
    train_gbdt_ranker,
    train_neural_ranker,
    train_ngram_lm,
)
from kgcausal.synthetic import make_planted_world
from kgcausal.util import descending_order


def heldout_metrics(model, records, lm, k=5):
    ndcgs, recalls = [], []
    for record in records:
        subs = record_subgraphs(record)
        scores = score_subgraphs(model, record_pair(record), subs, lm)
        order = descending_order(scores)
        gains = [record.metapaths[i].relscore for i in order]
        relevant = [record.metapaths[i].relevant == "1" for i in order]
        ndcgs.append(ndcg_at_k(gains, 1))
        recalls.append(recall_at_k(relevant, k, sum(relevant)))
    return float(np.mean(ndcgs)), float(np.mean(recalls))


def main() -> None:
    print("building the relevance-ranked dataset with the mock backend...")
    world = make_planted_world(n_pairs=120, flip_rate=0.01, seed=5)
    backend = MockOracle(world.mock_config)
    records = []
    for inst in world.instances:
        subs = enumerate_subgraphs(world.kg, (inst.e1, inst.e2), max_hops=4)
        records.append(rank_pair(inst, subs, backend))
    train, held = records[:84], records[84:]

    print("fitting the n-gram language model on pair+path token sequences...")
    corpus = [ranker_input_tokens(record_pair(r), sg)
              for r in records for sg in record_subgraphs(r)]
    lm = train_ngram_lm(corpus, n=2, d=64, seed=3, epochs=8, min_count=8)
    print(f"  vocab {len(lm.vocab)}, final loss {lm.loss_history[-1]:.3f}\n")

    neural_config = TrainConfig(epochs=400, learning_rate=0.3, batch=8, seed=5,
                                lr_decay=0.02)
    gbdt_config = TrainConfig(gbdt_rounds=30, gbdt_learning_rate=0.3, seed=5)

    print(f"{'model':<12} {'NDCG@1':>8} {'Recall@5':>10}")
    for loss in (RMSE, RANKNET, LISTNET):
        model = train_neural_ranker(train, lm, loss, neural_config)
        ndcg, recall = heldout_metrics(model, held, lm)
        print(f"{loss:<12} {ndcg:>8.3f} {recall:>10.3f}")
    gbdt = train_gbdt_ranker(train, lm, gbdt_config)
    ndcg, recall = heldout_metrics(gbdt, held, lm)
    print(f"{'gbdt':<12} {ndcg:>8.3f} {recall:>10.3f}")
    print(f"\ngbdt training RMSE: {gbdt.train_rmse_history[0]:.3f} -> "
          f"{gbdt.train_rmse_history[-1]:.3f} over {len(gbdt.train_rmse_history) - 1} "
          f"rounds (never increases)")


if __name__ == "__main__":
    main()
