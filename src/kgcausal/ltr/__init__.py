"""Learning-to-rank: features, losses, models, and ranking metrics."""

from .losses import (
    LISTNET,
    LOSS_KINDS,
    RANKNET,
    RMSE,
    loss_and_grad,
    loss_listnet,
    loss_listnet_grad,
    loss_ranknet,
    loss_ranknet_grad,
    loss_rmse,
    loss_rmse_grad,
    ranknet_terms,
)
from .metrics import dcg_at_k, ndcg_at_k, recall_at_k
from .models import (
    GBDT,
    MODEL_KINDS,
    NEURAL,
    RANDOM,
    SIMILARITY,
    FeatureConfig,
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
    scorer_forward,
    scorer_loss_and_grads,
    train_gbdt_ranker,
    train_neural_ranker,
)
from .ngram import (
    UNK,
    NgramLM,
    dense_features,
    hashed_counts,
    train_ngram_lm,
)

__all__ = [
    "LISTNET", "LOSS_KINDS", "RANKNET", "RMSE",
    "loss_and_grad", "loss_listnet", "loss_listnet_grad", "loss_ranknet", "loss_ranknet_grad",
    "loss_rmse", "loss_rmse_grad", "ranknet_terms",
    "dcg_at_k", "ndcg_at_k", "recall_at_k",
    "GBDT", "MODEL_KINDS", "NEURAL", "RANDOM", "SIMILARITY",
    "FeatureConfig", "GbdtEnsemble", "NeuralParams", "RankerModel",
    "RegressionTree", "TrainConfig",
    "load_model", "rank_subgraphs", "ranker_input_tokens",
    "record_pair", "record_subgraphs", "save_model", "score_subgraphs",
    "scorer_forward", "scorer_loss_and_grads",
    "train_gbdt_ranker", "train_neural_ranker",
    "UNK", "NgramLM", "dense_features", "hashed_counts", "train_ngram_lm",
]
