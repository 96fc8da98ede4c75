"""Scoring candidate subgraphs by how much they help a backend classify.

Uses the bundled synthetic world: every causal pair has one path through a
marker node, and the mock backend answers "causal" exactly when it sees the
marker in the prompt's relation-path block.  Each candidate is scored
1 + p when the answer is right and 1 - p when wrong, so informative paths
float to the top.  Run with:  python demos/02_relevance_estimation.py
"""

import json

from kgcausal.kg import enumerate_subgraphs
from kgcausal.llm import MockOracle
from kgcausal.relevance import build_sre_prompt, rank_pair
from kgcausal.synthetic import make_planted_world


def main() -> None:
    world = make_planted_world(n_pairs=16, flip_rate=0.0, seed=5)
    backend = MockOracle(world.mock_config)

    instance = world.instances[0]
    candidates = enumerate_subgraphs(world.kg, (instance.e1, instance.e2), max_hops=4)
    print(f"pair ({instance.e1}, {instance.e2}), "
          f"label {instance.groundtruth}, {len(candidates)} candidate paths\n")

    print("one scoring prompt (first candidate):")
    print("-" * 60)
    print(build_sre_prompt(instance, candidates[0]))
    print("-" * 60)

    record = rank_pair(instance, candidates, backend)
    print("\nranked record (most informative first):")
    print(json.dumps(record.to_dict(), indent=2))

    print(f"\nbackend calls used: {backend.calls} "
          f"(one per candidate, no hidden calls)")


if __name__ == "__main__":
    main()
