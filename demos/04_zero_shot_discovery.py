"""Zero-shot causal classification with and without subgraph context.

Runs the whole loop on the synthetic world: enumerate paths, rank them with
a trained model, put the single best path into the prompt, and compare the
resulting precision/recall/F1 against the bare no-subgraph prompt.
Run with:  python demos/04_zero_shot_discovery.py
"""

from kgcausal.discovery import (
    DiscoveryConfig,
    build_discovery_prompt,
    classify_pair,
    evaluate_classification,
)
from kgcausal.kg import enumerate_subgraphs
from kgcausal.llm import MockOracle
from kgcausal.ltr.losses import RANKNET
from kgcausal.ltr.models import (
    TrainConfig,
    rank_subgraphs,
    record_pair,
    record_subgraphs,
    train_neural_ranker,
)
from kgcausal.ltr.ngram import train_ngram_lm
from kgcausal.relevance import rank_pair
from kgcausal.synthetic import make_planted_world
from kgcausal.verbalize import ranker_input_tokens, verbalize


def main() -> None:
    world = make_planted_world(n_pairs=120, flip_rate=0.01, seed=5)
    backend = MockOracle(world.mock_config)

    print("stage 1: relevance estimation over all pairs...")
    records = []
    for inst in world.instances:
        subs = enumerate_subgraphs(world.kg, (inst.e1, inst.e2), max_hops=4)
        records.append(rank_pair(inst, subs, backend))

    print("stage 2: distilling into a pairwise-trained ranker...")
    corpus = [ranker_input_tokens(record_pair(r), sg)
              for r in records for sg in record_subgraphs(r)]
    lm = train_ngram_lm(corpus, n=2, d=64, seed=3, epochs=8, min_count=8)
    train = records[:84]
    ranker = train_neural_ranker(train, lm, RANKNET,
                                 TrainConfig(epochs=400, learning_rate=0.3,
                                             batch=8, seed=5, lr_decay=0.02))

    print("stage 3: zero-shot classification on the held-out pairs...\n")
    held = [inst for inst in world.instances
            if inst.qid in {r.qid for r in records[84:]}]
    config = DiscoveryConfig(k=1)

    example = held[0]
    candidates = enumerate_subgraphs(world.kg, (example.e1, example.e2), max_hops=4)
    print("one discovery prompt (top-1 path in context):")
    print("-" * 60)
    ranked = rank_subgraphs(ranker, (example.e1, example.e2), candidates, lm)
    print(build_discovery_prompt(example, [verbalize(ranked[0][0])]))
    print("-" * 60)

    augmented = [classify_pair(inst, world.kg, ranker, backend, config=config, lm=lm)
                 for inst in held]
    bare = [classify_pair(inst, world.kg, None, backend, config=config)
            for inst in held]

    for name, predictions in (("top-1 subgraph", augmented), ("no subgraph", bare)):
        m = evaluate_classification(predictions, held)
        print(f"\n{name:<16} P={m.precision:6.2f}  R={m.recall:6.2f}  F1={m.f1:6.2f}"
              f"  (tp={m.tp} fp={m.fp} fn={m.fn} tn={m.tn})")


if __name__ == "__main__":
    main()
