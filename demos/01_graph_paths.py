"""Loading a knowledge graph snapshot and querying metapath subgraphs.

Builds a small drug/gene/disease graph on disk, loads it, and walks through
shortest-path enumeration, the path renderings, and seeded downsampling.
Run with:  python demos/01_graph_paths.py
"""

import json
import tempfile
from pathlib import Path

from kgcausal.kg import enumerate_subgraphs, load_kg, sample_subgraphs
from kgcausal.verbalize import FULL, HYPHEN, PLAIN_ARROWS, verbalize

TRIPLES = [
    ("c1", "raloxifene", "Compound", "upregulates", "g1", "ERBB2", "Gene"),
    ("g1", "ERBB2", "Gene", "associates", "d1", "melanoma", "Disease"),
    ("c1", "raloxifene", "Compound", "treats", "d2", "breast cancer", "Disease"),
    ("d2", "breast cancer", "Disease", "associates", "g1", "ERBB2", "Gene"),
    ("c1", "raloxifene", "Compound", "binds", "g2", "ESR1", "Gene"),
    ("g2", "ESR1", "Gene", "expressed_in", "a1", "breast tissue", "Anatomy"),
]


def write_snapshot(path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for hid, hname, htype, rel, tid, tname, ttype in TRIPLES:
            fh.write(json.dumps({
                "head": {"id": hid, "name": hname, "type": htype},
                "relation": rel,
                "tail": {"id": tid, "name": tname, "type": ttype},
            }) + "\n")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "kg.jsonl"
        write_snapshot(snapshot)
        kg = load_kg(snapshot)
        print(f"loaded: {kg.load_report.nodes} nodes, {kg.load_report.edges} edges\n")

        print("1. all shortest paths raloxifene -> melanoma (up to 4 hops):")
        paths = enumerate_subgraphs(kg, ("raloxifene", "melanoma"), max_hops=4)
        for sg in paths:
            print("   ", verbalize(sg, PLAIN_ARROWS))
        print()

        print("2. the same paths in the other renderings:")
        print("   full:  ", verbalize(paths[0], FULL))
        print("   hyphen:", verbalize(paths[0], HYPHEN))
        print()

        print("3. seeded sampling keeps order and is reproducible:")
        sampled = sample_subgraphs(paths, k=1, seed=7)
        print("   kept:", verbalize(sampled[0], HYPHEN))


if __name__ == "__main__":
    main()
