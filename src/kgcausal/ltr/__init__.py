"""Learning-to-rank: features, losses, models, and ranking metrics."""

from .losses import (
    LISTNET,
    LOSS_KINDS,
    RANKNET,
    RMSE,
    loss_and_grad,
    ranknet_terms,
)
from .metrics import dcg_at_k, ndcg_at_k, recall_at_k
from .models import (
    GBDT,
    MODEL_KINDS,
    NEURAL,
    RANDOM,
    SIMILARITY,
    GbdtEnsemble,
    NeuralParams,
    RankerModel,
    RegressionTree,
    TrainConfig,
    load_model,
    rank_subgraphs,
    ranker_input_tokens,
    record_pair,
    record_subgraphs,
    save_model,
    score_subgraphs,
    scorer_loss_and_grads,
    train_gbdt_ranker,
    train_neural_ranker,
)
from .ngram import (
    UNK,
    NgramLM,
    dense_features,
    train_ngram_lm,
)

__all__ = [
    "LISTNET", "LOSS_KINDS", "RANKNET", "RMSE",
    "loss_and_grad", "ranknet_terms",
    "dcg_at_k", "ndcg_at_k", "recall_at_k",
    "GBDT", "MODEL_KINDS", "NEURAL", "RANDOM", "SIMILARITY",
    "GbdtEnsemble", "NeuralParams", "RankerModel", "RegressionTree", "TrainConfig",
    "load_model", "rank_subgraphs", "ranker_input_tokens",
    "record_pair", "record_subgraphs", "save_model", "score_subgraphs",
    "scorer_loss_and_grads",
    "train_gbdt_ranker", "train_neural_ranker",
    "UNK", "NgramLM", "dense_features", "train_ngram_lm",
]
